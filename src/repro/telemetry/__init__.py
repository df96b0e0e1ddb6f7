"""Observability for the attack/defense pipeline: spans, metrics, manifests.

Three pillars:

* **tracing** — ``get_telemetry().span("attack.quantize")`` context
  managers (and the :func:`traced` decorator) record a nested wall-clock
  timing tree with call counts;
* **metrics** — counters, gauges, and streaming histograms such as
  ``detector.decisions{verdict=emulated}`` or ``zigbee.chip_errors``,
  with JSON/CSV export;
* **run manifests** — seed, config, package version, and host identity
  persisted next to every saved result (:mod:`repro.telemetry.manifest`).

Disabled by default with a no-op fast path, so the instrumentation in
``repro.attack`` / ``repro.defense`` / ``repro.zigbee`` / ``repro.link``
costs nothing unless switched on::

    from repro.telemetry import get_telemetry

    telemetry = get_telemetry()
    telemetry.enable()
    ...  # run the pipeline
    print(telemetry.snapshot())          # span tree + metrics

or from the CLI: ``repro-experiments run table2 --telemetry
--telemetry-out t.json`` then ``repro-experiments report t.json``.

On top of the snapshot layer sits the *live* telemetry plane: a
structured JSONL event stream (:mod:`repro.telemetry.events`), a
persistent run registry (:mod:`repro.telemetry.registry`, one
``.repro-runs/<run_id>/`` directory per ``--telemetry`` run), and
cross-run regression diffing (:mod:`repro.telemetry.diff`, the engine
behind ``repro-experiments runs diff --gate``).  Manifests, diffing and
the report renderers (:mod:`repro.telemetry.report`) are run-directory
tooling that no sweep runs, so they are imported from their own modules
rather than re-exported here.
"""

from repro.telemetry.core import (
    SpanNode,
    Stopwatch,
    Telemetry,
    get_telemetry,
    stopwatch,
    traced,
)
from repro.telemetry.events import (
    EVENT_TYPES,
    EventSink,
    EventStream,
    FileEventSink,
    MemoryEventSink,
    StderrProgressSink,
    get_event_stream,
    read_events_jsonl,
    summarize_events,
)
from repro.telemetry.registry import (
    DEFAULT_RUNS_ROOT,
    RunDirectory,
    RunRegistry,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    metric_key,
)

__all__ = [
    "Counter",
    "DEFAULT_RUNS_ROOT",
    "EVENT_TYPES",
    "EventSink",
    "EventStream",
    "FileEventSink",
    "Gauge",
    "Histogram",
    "MemoryEventSink",
    "MetricRegistry",
    "RunDirectory",
    "RunRegistry",
    "SpanNode",
    "StderrProgressSink",
    "Stopwatch",
    "Telemetry",
    "get_event_stream",
    "get_telemetry",
    "metric_key",
    "read_events_jsonl",
    "stopwatch",
    "summarize_events",
    "traced",
]
