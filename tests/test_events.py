"""Tests for the structured event stream (``repro.telemetry.events``).

Covers the sink contract (memory, crash-safe file append, stderr
ticker), the disabled-path no-op, heartbeat/ETA arithmetic, and the
engine-level determinism guarantee: for a fixed seed and a pinned chunk
size the *types and order* of emitted events are identical serial vs
parallel, including under the recovered fault drill — and an
``events.jsonl`` written by a killed sweep survives into the resumed
run.
"""

import io
import json

import pytest

from repro.errors import ConfigurationError, TrialExecutionError
from repro.experiments import engine as engine_module
from repro.experiments import table2_attack_awgn
from repro.experiments.engine import FAULT_EVERY_ENV, MonteCarloEngine
from repro.telemetry.events import (
    EVENT_TYPES,
    EventStream,
    FileEventSink,
    MemoryEventSink,
    StderrProgressSink,
    format_event,
    format_heartbeat,
    get_event_stream,
    read_events_jsonl,
    summarize_events,
)


def _draw_trial(context, args, rng):
    """Module-level so worker processes could unpickle it (R003)."""
    return float(rng.normal())


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """Isolate each test from process-wide stream and drill state."""
    monkeypatch.delenv(FAULT_EVERY_ENV, raising=False)
    engine_module._FAULTED_SEEDS.clear()
    get_event_stream().reset()
    yield
    engine_module._FAULTED_SEEDS.clear()
    get_event_stream().reset()


class _EagerPool:
    """ProcessPoolExecutor stand-in executing chunks in-process."""

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)

    def submit(self, fn, *args):
        return _EagerFuture(fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _EagerFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class TestEventStream:
    def test_disabled_stream_is_a_no_op(self):
        stream = EventStream()
        sink = stream.add_sink(MemoryEventSink())
        stream.declare_trials(10)
        stream.heartbeat(5)
        stream.emit("run_started")
        assert sink.records == []
        assert stream.trials_done == 0

    def test_unknown_event_type_rejected(self):
        stream = EventStream()
        stream.enable()
        with pytest.raises(ConfigurationError):
            stream.emit("made_up_event")

    def test_missing_required_field_rejected(self):
        stream = EventStream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        with pytest.raises(ConfigurationError, match="trial_index"):
            stream.emit("trial_retry", attempts=2, recovered=True)
        assert sink.records == []

    def test_undeclared_field_on_closed_schema_rejected(self):
        stream = EventStream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        with pytest.raises(ConfigurationError, match="mood"):
            stream.emit(
                "trial_retry", trial_index=3, attempts=2, recovered=True,
                mood="grim",
            )
        assert sink.records == []

    def test_records_carry_sequence_and_run_id(self):
        stream = EventStream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable(run_id="run-42")
        stream.run_started(experiments=["table2"], seed=1)
        stream.point_started("table2", "snr15", trials=3)
        first, second = sink.records
        assert first["event"] == "run_started"
        assert first["schema_version"] == 1
        assert [first["seq"], second["seq"]] == [1, 2]
        assert first["run_id"] == second["run_id"] == "run-42"
        assert "ts" in first

    def test_heartbeats_accumulate_monotonically_with_eta(self):
        stream = EventStream()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        stream.declare_trials(30)
        for completed in (10, 10, 10):
            stream.heartbeat(completed)
        done = [record["trials_done"] for record in sink.records]
        assert done == [10, 20, 30]
        assert all(record["trials_total"] == 30 for record in sink.records)
        assert all(
            record["eta_seconds"] is not None for record in sink.records
        )
        # ETA shrinks to zero as the declared total is consumed.
        assert sink.records[-1]["eta_seconds"] == 0.0
        assert stream.trials_done == 30

    def test_reset_closes_sinks_and_zeroes_progress(self, tmp_path):
        stream = EventStream()
        sink = stream.add_sink(FileEventSink(tmp_path / "events.jsonl"))
        stream.enable()
        stream.heartbeat(7)
        stream.reset()
        assert not stream.enabled
        assert stream.trials_done == 0
        with pytest.raises(ConfigurationError):
            sink.emit({"event": "heartbeat"})


class TestSinks:
    def test_file_sink_appends_across_reopens(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = FileEventSink(path)
        first.emit({"event": "run_started", "seq": 1})
        first.close()
        second = FileEventSink(path)
        second.emit({"event": "run_finished", "seq": 2})
        second.close()
        kinds = [record["event"] for record in read_events_jsonl(path)]
        assert kinds == ["run_started", "run_finished"]

    def test_reader_tolerates_a_torn_final_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps({"event": "heartbeat", "seq": 1}) + "\n")
            handle.write('{"event": "heartbe')  # killed mid-write
        events = read_events_jsonl(path)
        assert [record["seq"] for record in events] == [1]

    def test_reader_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_events_jsonl(tmp_path / "absent.jsonl")

    def test_stderr_sink_ticker_and_journal(self):
        buffer = io.StringIO()
        sink = StderrProgressSink(stream=buffer)
        sink.emit({"event": "heartbeat", "trials_done": 5, "ts": 0.0,
                   "trials_per_second": 2.5})
        sink.emit({"event": "point_finished", "experiment": "table2",
                   "point": "snr15", "rows_so_far": 1, "ts": 0.0})
        sink.close()
        text = buffer.getvalue()
        assert "\r" in text  # the rewritten ticker line
        assert "5 trials" in text
        assert "point_finished" in text
        assert "point=snr15" in text


class TestSummariesAndRendering:
    def test_summarize_counts_and_status(self):
        events = [
            {"event": "run_started"},
            {"event": "trial_retry"},
            {"event": "trial_failure"},
            {"event": "heartbeat", "trials_done": 12},
            {"event": "point_finished"},
            {"event": "run_finished", "status": "ok",
             "elapsed_seconds": 1.5},
        ]
        summary = summarize_events(events)
        assert summary["events"] == 6
        assert summary["retries"] == 1
        assert summary["failures"] == 1
        assert summary["points_finished"] == 1
        assert summary["trials_done"] == 12
        assert summary["status"] == "ok"
        assert summary["elapsed_seconds"] == 1.5

    def test_summarize_empty_stream(self):
        summary = summarize_events([])
        assert summary["events"] == 0
        assert summary["status"] is None
        assert set(summary["counts"]) == set(EVENT_TYPES)

    def test_format_heartbeat_and_event_lines(self):
        line = format_heartbeat({"trials_done": 4, "trials_total": 8,
                                 "trials_per_second": 2.0,
                                 "eta_seconds": 2.0, "ts": 0.0})
        assert "4/8 trials" in line
        assert "eta 2s" in line
        line = format_event({"event": "pool_rebuild", "trials_lost": 6,
                             "seq": 9, "ts": 0.0})
        assert "pool_rebuild" in line
        assert "trials_lost=6" in line
        assert "seq=" not in line


class TestEngineEventDeterminism:
    def _run_events(self, monkeypatch, workers):
        """Event-type sequence for one engine run (serial or pooled)."""
        engine_module._FAULTED_SEEDS.clear()
        stream = get_event_stream()
        stream.reset()
        sink = stream.add_sink(MemoryEventSink())
        stream.enable()
        if workers > 1:
            monkeypatch.setattr(
                engine_module, "ProcessPoolExecutor", _EagerPool
            )
        engine = MonteCarloEngine(
            workers=workers, chunk_size=2, on_error="retry"
        )
        with engine.session({}) as session:
            result = session.run(_draw_trial, 6, rng=5)
        stream.reset()
        return result, [record["event"] for record in sink.records]

    def test_serial_and_parallel_emit_identical_event_types(
        self, monkeypatch
    ):
        # Fault every seed once: each trial recovers on its retry, so
        # the stream carries trial_retry events in both execution modes.
        monkeypatch.setenv(FAULT_EVERY_ENV, "1")
        serial_rows, serial_events = self._run_events(monkeypatch, workers=1)
        pooled_rows, pooled_events = self._run_events(monkeypatch, workers=2)
        assert serial_rows == pooled_rows
        assert serial_events == pooled_events
        assert "trial_retry" in serial_events
        # One heartbeat per chunk: 6 trials / chunk_size 2.
        assert serial_events.count("heartbeat") == 3

    def test_clean_run_emits_only_heartbeats(self, monkeypatch):
        _, serial_events = self._run_events(monkeypatch, workers=1)
        _, pooled_events = self._run_events(monkeypatch, workers=2)
        assert serial_events == pooled_events == ["heartbeat"] * 3


class TestKilledRunEventStream:
    PARAMS = {"snrs_db": (15, 17), "trials": 3, "include_authentic": False}

    def test_events_survive_a_killed_then_resumed_sweep(
        self, tmp_path, monkeypatch
    ):
        # Same drill as the checkpoint suite: at seed 3 the fault drill
        # aborts inside the second SNR point, "killing" the run after
        # the first point checkpointed.
        events_path = tmp_path / "events.jsonl"
        stream = get_event_stream()
        stream.add_sink(FileEventSink(events_path))
        stream.enable(run_id="killed-run")
        monkeypatch.setenv(FAULT_EVERY_ENV, "5")
        engine_module._FAULTED_SEEDS.clear()
        with pytest.raises(TrialExecutionError):
            table2_attack_awgn.run(
                rng=3, checkpoint_dir=str(tmp_path / "ckpt"), **self.PARAMS
            )
        crashed = read_events_jsonl(events_path)
        crashed_kinds = [record["event"] for record in crashed]
        assert "point_started" in crashed_kinds
        assert "trial_failure" in crashed_kinds
        assert "checkpoint_saved" in crashed_kinds

        # Resume against the same stream: the file sink appends, so the
        # crashed run's record survives ahead of the resumed one.
        monkeypatch.delenv(FAULT_EVERY_ENV)
        engine_module._FAULTED_SEEDS.clear()
        result = table2_attack_awgn.run(
            rng=3, checkpoint_dir=str(tmp_path / "ckpt"), resume=True,
            **self.PARAMS
        )
        stream.reset()
        events = read_events_jsonl(events_path)
        kinds = [record["event"] for record in events]
        assert kinds[: len(crashed_kinds)] == crashed_kinds
        assert "checkpoint_hit" in kinds  # snr15 served from disk
        assert len(result.rows) == 2
        # Heartbeat trial counts never decrease within one enable cycle
        # (the resume re-enabled nothing: same stream, same counters).
        done = [r["trials_done"] for r in events if r["event"] == "heartbeat"]
        assert done == sorted(done)
