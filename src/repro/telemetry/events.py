"""Structured run events: a JSONL stream behind a pluggable sink API.

Where spans and counters answer "where did the time go" *after* a run,
the event stream answers "what is happening *right now*" — and leaves a
durable, replayable record of it.  Instrumented code emits typed events
(run/point lifecycle, trial failures, pool fallbacks, checkpoint
hits, heartbeats with throughput and ETA) through the
process-wide :class:`EventStream`; attached sinks decide where they go:

* :class:`FileEventSink` — one JSON object per line, appended and
  flushed per event, so a killed run's partial stream survives next to
  its checkpoints (a torn final line is tolerated by the reader);
* :class:`StderrProgressSink` — live single-line progress rendering
  (trials/sec, ETA) for humans watching a sweep;
* :class:`MemoryEventSink` — an in-process list, for tests.

Like the rest of :mod:`repro.telemetry` the stream is **disabled by
default** and the disabled path is one attribute check, so the emit
calls in the engine and the sweep drivers stay in hot code permanently.

Determinism contract: for a fixed seed and a fixed chunking the *types
and order* of emitted events are a pure function of the run — identical
serial vs parallel, and identical under the recovered fault drill —
because every event is emitted from the parent process as chunks
complete.  Timestamps, rates, and ETAs are wall-clock and excluded
from the guarantee.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

#: Bumped when the event record layout changes incompatibly.
EVENT_SCHEMA_VERSION = 2

#: The one declared schema for every event the stream may emit — the
#: contract shared by emitters and the JSONL consumers (``runs tail``,
#: the regression differ), enforced at runtime by ``EventStream.emit``.
#: Each entry lists the ``required`` fields every record of that type
#: carries, the ``optional`` fields it may carry, and whether the type
#: is ``open`` (free-form extra fields allowed — only the run lifecycle
#: events, whose payload is driver configuration).
EVENT_SCHEMAS = {
    "run_started": {
        "required": (),
        "optional": ("schema_version", "experiments", "seed"),
        "open": True,
    },
    "run_finished": {
        "required": ("status",),
        "optional": (
            "trials_done", "trials_total", "elapsed_seconds",
            "trials_per_second", "eta_seconds",
        ),
        "open": True,
    },
    "point_started": {
        "required": ("experiment", "point"),
        "optional": ("trials",),
        "open": False,
    },
    "point_finished": {
        "required": ("experiment", "point", "rows_so_far"),
        "optional": ("trials",),
        "open": False,
    },
    "point_converged": {
        "required": ("experiment", "point", "trials_used"),
        "optional": (
            "trials_saved", "converged", "capped",
            "estimate", "ci_low", "ci_high",
        ),
        "open": False,
    },
    "trial_failure": {
        "required": ("trial_index", "seeds", "rows", "exception_type", "message"),
        "optional": (),
        "open": False,
    },
    "pool_fallback": {
        "required": ("reason",),
        "optional": (),
        "open": False,
    },
    "checkpoint_hit": {
        "required": ("experiment", "key"),
        "optional": (),
        "open": False,
    },
    "checkpoint_saved": {
        "required": ("experiment", "key"),
        "optional": (),
        "open": False,
    },
    "heartbeat": {
        "required": ("trials_done", "elapsed_seconds", "trials_per_second"),
        "optional": ("trials_total", "eta_seconds"),
        "open": False,
    },
}

#: Every event type the stream may emit.  ``emit`` rejects anything
#: else so a typo cannot silently fork the schema.
EVENT_TYPES = tuple(EVENT_SCHEMAS)


class EventSink:
    """Where emitted events go.  Subclasses override :meth:`emit`."""

    def emit(self, record: Dict[str, Any]) -> None:
        """Deliver one event record (a JSON-serializable dict)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; further emits are undefined."""


class MemoryEventSink(EventSink):
    """Collects records in a list — the test double.

    Attributes:
        records: every emitted record, in order.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class FileEventSink(EventSink):
    """Crash-safe JSONL appender.

    Each record is serialized to one line, written, and flushed before
    :meth:`emit` returns, so a process killed mid-run loses at most the
    line it was writing — everything already emitted is on disk.  The
    file is opened in append mode: re-running against the same path
    (e.g. a resumed sweep pointed at its old run directory) extends the
    stream rather than truncating history.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(str(path))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[TextIO] = open(self.path, "a")

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ConfigurationError(f"event sink {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class StderrProgressSink(EventSink):
    """Human-facing live progress: one rewritten status line on stderr.

    Heartbeats redraw a single ``\\r``-terminated line with trials done,
    throughput, and ETA; lifecycle events (points, failures, fallbacks)
    finish the open line and print one log line each, so a watched sweep
    reads as a scrolling journal with a live ticker at the bottom.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._line_open = False

    # -- rendering -----------------------------------------------------

    def _println(self, text: str) -> None:
        if self._line_open:
            self._stream.write("\n")
            self._line_open = False
        self._stream.write(text + "\n")
        self._stream.flush()

    def emit(self, record: Dict[str, Any]) -> None:
        kind = record.get("event")
        if kind == "heartbeat":
            self._stream.write("\r" + format_heartbeat(record) + "\x1b[K")
            self._stream.flush()
            self._line_open = True
            return
        self._println(format_event(record))

    def close(self) -> None:
        if self._line_open:
            self._stream.write("\n")
            self._stream.flush()
            self._line_open = False


class EventStream:
    """Process-wide event emitter: typed events fanned out to sinks.

    Use :func:`get_event_stream` for the singleton.  Disabled by
    default; every typed emitter returns after one attribute check
    while disabled.  The stream also owns the run-level progress
    arithmetic: :meth:`heartbeat` accumulates completed trials against
    the totals drivers declared via :meth:`declare_trials` and stamps
    each heartbeat with trials/sec and an ETA.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.run_id: Optional[str] = None
        self._sinks: List[EventSink] = []
        self._sequence = 0
        self._trials_done = 0
        self._trials_total = 0
        self._started_clock = 0.0

    # -- lifecycle -----------------------------------------------------

    def enable(self, run_id: Optional[str] = None) -> None:
        """Start emitting; anchors the throughput clock."""
        self.enabled = True
        self.run_id = run_id
        self._started_clock = time.perf_counter()

    def disable(self) -> None:
        """Stop emitting; sinks stay attached."""
        self.enabled = False

    def reset(self) -> None:
        """Disable, close and drop every sink, and zero all progress."""
        self.enabled = False
        self.run_id = None
        for sink in self._sinks:
            sink.close()
        self._sinks = []
        self._sequence = 0
        self._trials_done = 0
        self._trials_total = 0

    def add_sink(self, sink: EventSink) -> EventSink:
        """Attach a sink; returns it for convenience."""
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: EventSink) -> None:
        """Detach (and close) one sink."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            sink.close()

    # -- progress accounting -------------------------------------------

    @property
    def trials_done(self) -> int:
        """Trials completed since :meth:`enable` (all sweep points)."""
        return self._trials_done

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since :meth:`enable`."""
        return time.perf_counter() - self._started_clock

    def declare_trials(self, count: int) -> None:
        """Add ``count`` to the expected trial total (drives the ETA).

        Sweep drivers call this once up front with the full grid's
        trial count; multiple declarations (e.g. ``run all``) add up.
        """
        if self.enabled:
            self._trials_total += int(count)

    def _progress_fields(self) -> Dict[str, Any]:
        elapsed = time.perf_counter() - self._started_clock
        rate = self._trials_done / elapsed if elapsed > 0 else 0.0
        eta: Optional[float] = None
        if self._trials_total and rate > 0:
            eta = max(self._trials_total - self._trials_done, 0) / rate
        return {
            "trials_done": self._trials_done,
            "trials_total": self._trials_total or None,
            "elapsed_seconds": round(elapsed, 3),
            "trials_per_second": round(rate, 3),
            "eta_seconds": None if eta is None else round(eta, 1),
        }

    # -- emission ------------------------------------------------------

    def emit(self, event_type: str, **fields: Any) -> None:
        """Emit one typed event to every sink (no-op while disabled)."""
        if not self.enabled:
            return
        if event_type not in EVENT_TYPES:
            raise ConfigurationError(
                f"unknown event type {event_type!r}; expected one of "
                f"{EVENT_TYPES}"
            )
        spec = EVENT_SCHEMAS[event_type]
        missing = [name for name in spec["required"] if name not in fields]
        if missing:
            raise ConfigurationError(
                f"event {event_type!r} is missing required field(s) "
                f"{', '.join(missing)}"
            )
        if not spec["open"]:
            allowed = set(spec["required"]) | set(spec["optional"])
            undeclared = sorted(set(fields) - allowed)
            if undeclared:
                raise ConfigurationError(
                    f"event {event_type!r} carries undeclared field(s) "
                    f"{', '.join(undeclared)}; declare them in "
                    f"EVENT_SCHEMAS or drop them"
                )
        self._sequence += 1
        record: Dict[str, Any] = {
            "event": event_type,
            "seq": self._sequence,
            "ts": time.time(),
        }
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(fields)
        for sink in self._sinks:
            sink.emit(record)

    # -- typed emitters ------------------------------------------------

    def run_started(self, **fields: Any) -> None:
        """The run began: experiments, seed, and config are known."""
        self.emit("run_started", schema_version=EVENT_SCHEMA_VERSION, **fields)

    def run_finished(self, status: str, **fields: Any) -> None:
        """The run ended with ``status`` (``"ok"`` or ``"error"``)."""
        self.emit("run_finished", status=status,
                  **self._progress_fields(), **fields)

    def point_started(self, experiment: str, point: str, **fields: Any) -> None:
        """A sweep point's trials are about to run."""
        self.emit("point_started", experiment=experiment, point=point, **fields)

    def point_finished(
        self, experiment: str, point: str, rows_so_far: int, **fields: Any
    ) -> None:
        """A sweep point completed; ``rows_so_far`` rows exist now."""
        self.emit("point_finished", experiment=experiment, point=point,
                  rows_so_far=rows_so_far, **fields)

    def point_converged(
        self, experiment: str, point: str, trials_used: int, **fields: Any
    ) -> None:
        """An adaptive sweep point settled (converged, capped, or dry)."""
        self.emit("point_converged", experiment=experiment, point=point,
                  trials_used=trials_used, **fields)

    def trial_failure(
        self, trial_index: int, seeds: Sequence[int], exception_type: str,
        message: str,
    ) -> None:
        """A dispatch raised; the run fails.

        ``trial_index`` is the dispatch's first trial and ``seeds`` every
        trial's stream seed in it, in trial order (one for a scalar
        trial, the whole batch for a batched one).
        """
        self.emit("trial_failure", trial_index=trial_index, seeds=list(seeds),
                  rows=len(seeds), exception_type=exception_type,
                  message=message)

    def pool_fallback(self, reason: str) -> None:
        """The worker pool could not be created or died; going serial."""
        self.emit("pool_fallback", reason=reason)

    def checkpoint_hit(self, experiment: str, key: str) -> None:
        """A resumed sweep served a point from disk instead of running it."""
        self.emit("checkpoint_hit", experiment=experiment, key=key)

    def checkpoint_saved(self, experiment: str, key: str) -> None:
        """A completed sweep point was persisted atomically."""
        self.emit("checkpoint_saved", experiment=experiment, key=key)

    def heartbeat(self, completed: int, **fields: Any) -> None:
        """``completed`` more trials finished; emit cumulative progress.

        The emitted ``trials_done`` is monotonically non-decreasing
        across a run; ``trials_per_second``/``eta_seconds`` derive from
        the wall clock and the :meth:`declare_trials` total.
        """
        if not self.enabled:
            return
        self._trials_done += int(completed)
        self.emit("heartbeat", **self._progress_fields(), **fields)


_STREAM = EventStream()


def get_event_stream() -> EventStream:
    """The process-wide :class:`EventStream` singleton."""
    return _STREAM


# -- reading and summarizing -------------------------------------------


def read_events_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Parse an events file, tolerating a torn final line.

    A run killed mid-write may leave a partial last line; any line that
    fails to parse (or parses to a non-dict) is skipped so the rest of
    the stream stays readable.
    """
    target = Path(str(path))
    if not target.exists():
        raise ConfigurationError(f"no such event stream: {path}")
    events: List[Dict[str, Any]] = []
    with open(target) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Roll one event stream up into run-level facts.

    Returns a dict with per-type counts plus the derived fields a
    report needs: failures/fallbacks, checkpoint
    hits/saves, points finished, final trial count and rate (from the
    last heartbeat), and the run's status and elapsed seconds (from
    ``run_finished``, when one was recorded).
    """
    counts = {kind: 0 for kind in EVENT_TYPES}
    last_heartbeat: Optional[Dict[str, Any]] = None
    finished: Optional[Dict[str, Any]] = None
    for event in events:
        kind = event.get("event")
        if kind in counts:
            counts[kind] += 1
        if kind == "heartbeat":
            last_heartbeat = event
        elif kind == "run_finished":
            finished = event
    return {
        "events": len(events),
        "counts": counts,
        "failures": counts["trial_failure"],
        "pool_fallbacks": counts["pool_fallback"],
        "checkpoint_hits": counts["checkpoint_hit"],
        "checkpoint_saves": counts["checkpoint_saved"],
        "points_finished": counts["point_finished"],
        "trials_done": (last_heartbeat or {}).get("trials_done", 0),
        "last_heartbeat": last_heartbeat,
        "status": (finished or {}).get("status"),
        "elapsed_seconds": (finished or {}).get("elapsed_seconds"),
    }


# -- human rendering ----------------------------------------------------


def _format_clock(ts: Any) -> str:
    if not isinstance(ts, (int, float)):
        return "--:--:--"
    return time.strftime("%H:%M:%S", time.localtime(ts))


def format_heartbeat(record: Dict[str, Any]) -> str:
    """One-line ticker text for a heartbeat record."""
    done = record.get("trials_done", 0)
    total = record.get("trials_total")
    rate = record.get("trials_per_second") or 0.0
    eta = record.get("eta_seconds")
    progress = f"{done}/{total}" if total else f"{done}"
    eta_text = f"  eta {eta:.0f}s" if isinstance(eta, (int, float)) else ""
    return (
        f"[{_format_clock(record.get('ts'))}] {progress} trials  "
        f"{rate:.1f}/s{eta_text}"
    )


def format_event(record: Dict[str, Any]) -> str:
    """One human-readable log line for any event record."""
    kind = str(record.get("event", "?"))
    clock = _format_clock(record.get("ts"))
    if kind == "heartbeat":
        return format_heartbeat(record)
    skip = {"event", "seq", "ts", "run_id", "schema_version"}
    details = "  ".join(
        f"{key}={value}" for key, value in record.items()
        if key not in skip and value is not None
    )
    return f"[{clock}] {kind:<16s} {details}".rstrip()
