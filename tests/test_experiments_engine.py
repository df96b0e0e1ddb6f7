"""Monte Carlo engine: determinism, telemetry merge, fallback."""

import concurrent.futures

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import table2_attack_awgn
from repro.experiments.engine import MonteCarloEngine, batch_trial
from repro.telemetry import SpanNode, Telemetry, get_telemetry
from repro.telemetry.metrics import Histogram, MetricRegistry
from repro.utils.rng import spawn_rngs, spawn_seeds


def _draw_trial(context, args, rng):
    """Trial: one Gaussian draw scaled by the context — pure RNG check."""
    (scale,) = args
    return float(rng.normal()) * scale * context["gain"]


def _counting_trial(context, args, rng):
    """Trial that records telemetry: a span, a counter, a histogram."""
    telemetry = get_telemetry()
    with telemetry.span("test.trial"):
        value = float(rng.normal())
        telemetry.count("test.trials")
        telemetry.observe("test.values", value)
    return value


#: Row counts of every call to :func:`_recorded_batch_draw`, in order.
_BATCH_CALLS = []


@batch_trial
def _recorded_batch_draw(context, args, rngs):
    """Batched trial that records its row count per call."""
    _BATCH_CALLS.append(len(rngs))
    return [float(rng.normal()) for rng in rngs]


class TestSpawnSeeds:
    def test_matches_spawn_rngs_streams(self):
        seeds = spawn_seeds(7, 5)
        generators = spawn_rngs(7, 5)
        for seed, generator in zip(seeds, generators):
            assert np.random.default_rng(seed).normal() == generator.normal()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestEngineConfig:
    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(workers=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(chunk_size=0)

    def test_chunk_size_derivation(self):
        engine = MonteCarloEngine(workers=4)
        assert engine.resolve_chunk_size(160) == 10
        assert engine.resolve_chunk_size(1) == 1
        assert MonteCarloEngine(workers=4, chunk_size=3).resolve_chunk_size(160) == 3
        # Serial: one chunk up to the floor, then four chunks per run.
        serial = MonteCarloEngine(workers=1)
        for count, chunk in ((1, 1), (8, 8), (40, 32), (200, 50), (1000, 250)):
            assert serial.resolve_chunk_size(count) == chunk, count
        assert MonteCarloEngine(chunk_size=2).resolve_chunk_size(8) == 2

    def test_negative_trial_count_rejected(self):
        with MonteCarloEngine().session({}) as session:
            with pytest.raises(ConfigurationError):
                session.run(_draw_trial, -1, static_args=(1.0,))


class TestDeterminism:
    def test_serial_matches_parallel_across_chunkings(self):
        context = {"gain": 2.0}
        with MonteCarloEngine().session(context) as session:
            serial = session.run(_draw_trial, 23, rng=5, static_args=(1.5,))
        for workers, chunk_size in ((2, 1), (2, 7), (4, None)):
            engine = MonteCarloEngine(workers=workers, chunk_size=chunk_size)
            with engine.session(context) as session:
                parallel = session.run(_draw_trial, 23, rng=5, static_args=(1.5,))
            assert parallel == serial, (workers, chunk_size)

    def test_results_arrive_in_trial_order(self):
        seeds = spawn_seeds(3, 11)
        expected = [float(np.random.default_rng(s).normal()) for s in seeds]
        engine = MonteCarloEngine(workers=2, chunk_size=4)
        with engine.session({"gain": 1.0}) as session:
            assert session.run(_draw_trial, 11, rng=3, static_args=(1.0,)) == expected

    def test_table2_rows_identical_serial_vs_parallel(self):
        serial = table2_attack_awgn.run(
            snrs_db=(11,), trials=4, include_authentic=False, rng=0
        )
        parallel = table2_attack_awgn.run(
            snrs_db=(11,), trials=4, include_authentic=False, rng=0,
            workers=2, chunk_size=1,
        )
        assert serial.rows == parallel.rows


class TestSerialIncrements:
    """A serial adaptive increment is one batch, with the same outcome."""

    def test_serial_increment_is_one_batch_call(self):
        _BATCH_CALLS.clear()
        with MonteCarloEngine().session({}) as session:
            stream = session.run_until(_recorded_batch_draw, rng=4)
            stream.extend(8)
        assert _BATCH_CALLS == [8]


class TestTelemetryMerge:
    def setup_method(self):
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()

    def teardown_method(self):
        telemetry = get_telemetry()
        telemetry.disable()
        telemetry.reset()

    def _run(self, workers, chunk_size=None):
        engine = MonteCarloEngine(workers=workers, chunk_size=chunk_size)
        with engine.session({}) as session:
            session.run(_counting_trial, 10, rng=1)
        return get_telemetry().snapshot()

    def test_parallel_counters_equal_serial(self):
        serial = self._run(workers=1)
        get_telemetry().reset()
        get_telemetry().enable()
        parallel = self._run(workers=2, chunk_size=3)
        assert (
            parallel["metrics"]["counters"]["test.trials"]
            == serial["metrics"]["counters"]["test.trials"]
            == 10
        )

    def test_parallel_span_counts_and_histograms_match_serial(self):
        serial = self._run(workers=1)
        get_telemetry().reset()
        get_telemetry().enable()
        parallel = self._run(workers=2, chunk_size=3)

        def span_count(snapshot):
            children = {
                c["name"]: c for c in snapshot["spans"]["children"]
            }
            return children["test.trial"]["count"]

        assert span_count(parallel) == span_count(serial) == 10
        serial_hist = serial["metrics"]["histograms"]["test.values"]
        parallel_hist = parallel["metrics"]["histograms"]["test.values"]
        for exact in ("count", "sum", "min", "max", "mean"):
            assert parallel_hist[exact] == pytest.approx(serial_hist[exact])

    def test_worker_spans_nest_under_current_parent_span(self):
        telemetry = get_telemetry()
        engine = MonteCarloEngine(workers=2, chunk_size=5)
        with telemetry.span("experiment.synthetic"):
            with engine.session({}) as session:
                session.run(_counting_trial, 10, rng=1)
        tree = telemetry.span_tree()
        experiment = {c["name"]: c for c in tree["children"]}["experiment.synthetic"]
        nested = {c["name"]: c for c in experiment["children"]}
        assert nested["test.trial"]["count"] == 10


class TestFallback:
    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        engine = MonteCarloEngine(workers=4)
        with engine.session({"gain": 1.0}) as session:
            results = session.run(_draw_trial, 9, rng=2, static_args=(1.0,))
        assert engine.used_fallback
        with MonteCarloEngine().session({"gain": 1.0}) as session:
            assert results == session.run(_draw_trial, 9, rng=2, static_args=(1.0,))

    def test_pool_fallback_increments_telemetry_counter(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            engine = MonteCarloEngine(workers=4)
            with engine.session({"gain": 1.0}) as session:
                session.run(_draw_trial, 4, rng=2, static_args=(1.0,))
                # A second run reuses the failed-pool decision and must
                # not double count the degradation event.
                session.run(_draw_trial, 4, rng=3, static_args=(1.0,))
            counters = telemetry.registry.counters
            assert counters["engine.pool_fallbacks"].value == 1
            assert counters["engine.pool_fallbacks{reason=OSError}"].value == 1
        finally:
            telemetry.reset()
            telemetry.disable()

    def test_unexpected_pool_errors_propagate(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise TypeError("a bug, not a restricted environment")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        engine = MonteCarloEngine(workers=4)
        with engine.session({"gain": 1.0}) as session:
            with pytest.raises(TypeError):
                session.run(_draw_trial, 4, rng=2, static_args=(1.0,))
        assert not engine.used_fallback


class TestMergePrimitives:
    def test_span_node_merge_dict_accumulates(self):
        node = SpanNode("run")
        node.child("stage").call_count = 2
        node.child("stage").total_seconds = 1.0
        node.merge_dict(
            {
                "name": "run",
                "count": 1,
                "seconds": 0.5,
                "children": [
                    {"name": "stage", "count": 3, "seconds": 2.0, "children": []},
                    {"name": "new", "count": 1, "seconds": 0.1, "children": []},
                ],
            }
        )
        assert node.children["stage"].call_count == 5
        assert node.children["stage"].total_seconds == pytest.approx(3.0)
        assert node.children["new"].call_count == 1

    def test_histogram_merge_state_exact_aggregates(self):
        left, right = Histogram("h"), Histogram("h")
        for value in (1.0, 5.0):
            left.observe(value)
        for value in (-2.0, 3.0, 4.0):
            right.observe(value)
        left.merge_state(right.dump_state())
        assert left.count == 5
        assert left.total == pytest.approx(11.0)
        assert left.minimum == -2.0
        assert left.maximum == 5.0

    def test_registry_merge_state_counters_add_gauges_overwrite(self):
        left, right = MetricRegistry(), MetricRegistry()
        left.counter("c").increment(2)
        right.counter("c").increment(3)
        right.counter("only_right").increment(1)
        left.gauge("g").set(1.0)
        right.gauge("g").set(9.0)
        left.merge_state(right.dump_state())
        assert left.counters["c"].value == 5
        assert left.counters["only_right"].value == 1
        assert left.gauges["g"].value == 9.0

    def test_telemetry_dump_and_merge_roundtrip(self):
        worker = Telemetry()
        worker.enable()
        with worker.span("stage"):
            worker.count("events", 4)
        parent = Telemetry()
        parent.enable()
        parent.merge_state(worker.dump_state())
        assert parent.registry.counters["events"].value == 4
        assert parent.root.children["stage"].call_count == 1
