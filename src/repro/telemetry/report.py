"""Render a saved telemetry file (or run directory) for the terminal.

``repro-experiments report t.json`` calls :func:`render_telemetry` to
show the manifest header, the nested timing tree (seconds, call counts,
share of parent), a bar chart of top-level stages (via
:mod:`repro.utils.terminal_plot`), and the metric table.  Pointed at a
run *directory* (``report .repro-runs/<id>``) it renders the same
report from ``metrics.json`` plus the event-derived
failure/fallback summary (:func:`render_run_directory`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import ConfigurationError
from repro.utils.terminal_plot import bar_chart

PathLike = Union[str, Path]


def is_telemetry_payload(data: Any) -> bool:
    """Whether ``data`` looks like a ``Telemetry`` snapshot dump."""
    return isinstance(data, dict) and "spans" in data and "metrics" in data


def load_telemetry(path: PathLike) -> Dict[str, Any]:
    """Read a telemetry JSON file; raises on foreign content."""
    target = Path(str(path))
    if not target.exists():
        raise ConfigurationError(f"no such telemetry file: {path}")
    with open(str(target)) as handle:
        data = json.load(handle)
    if not is_telemetry_payload(data):
        raise ConfigurationError(f"{path} is not a telemetry file")
    return data


def format_span_tree(tree: Dict[str, Any]) -> str:
    """Indented timing tree: seconds, call count, share of parent."""
    lines: List[str] = []

    def _walk(node: Dict[str, Any], depth: int, parent_seconds: float) -> None:
        seconds = float(node.get("seconds", 0.0))
        count = int(node.get("count", 0))
        share = ""
        if parent_seconds > 0:
            share = f"  {100.0 * seconds / parent_seconds:5.1f}%"
        indent = "  " * depth
        lines.append(
            f"{indent}{node.get('name', '?'):<{max(1, 36 - 2 * depth)}} "
            f"{seconds:10.4f}s  x{count:<6d}{share}"
        )
        for child in node.get("children", []):
            _walk(child, depth + 1, seconds)

    children = tree.get("children", [])
    if not children:
        return "(no spans recorded)"
    total = sum(float(child.get("seconds", 0.0)) for child in children)
    lines.append(f"{'span':<37}{'seconds':>10}   calls   share")
    lines.append("-" * 66)
    for child in children:
        _walk(child, 0, total)
    return "\n".join(lines)


def format_stage_bars(tree: Dict[str, Any], width: int = 40) -> str:
    """Bar chart of top-level stage wall-clock totals."""
    children = tree.get("children", [])
    if not children:
        return ""
    labels = [str(child.get("name", "?")) for child in children]
    values = [max(float(child.get("seconds", 0.0)), 0.0) for child in children]
    return bar_chart(labels, values, width=width, title="stage wall-clock [s]")


def format_metrics(metrics: Dict[str, Any]) -> str:
    """Counter/gauge/histogram tables as aligned text."""
    lines: List[str] = []
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    if counters:
        width = max(len(k) for k in counters)
        lines.append("counters")
        for key in sorted(counters):
            lines.append(f"  {key:<{width}}  {counters[key]:g}")
    if gauges:
        width = max(len(k) for k in gauges)
        lines.append("gauges")
        for key in sorted(gauges):
            lines.append(f"  {key:<{width}}  {gauges[key]:g}")
    if histograms:
        width = max(len(k) for k in histograms)
        lines.append("histograms")
        header = (f"  {'key':<{width}}  {'count':>7} {'mean':>10} "
                  f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}")
        lines.append(header)
        for key in sorted(histograms):
            summary = histograms[key]
            if summary.get("count", 0) == 0:
                lines.append(f"  {key:<{width}}  {0:>7}")
                continue
            lines.append(
                f"  {key:<{width}}  {summary['count']:>7d} "
                f"{summary['mean']:>10.4g} {summary['p50']:>10.4g} "
                f"{summary['p95']:>10.4g} {summary['p99']:>10.4g} "
                f"{summary['max']:>10.4g}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def format_manifest(manifest: Dict[str, Any]) -> str:
    """One-paragraph manifest header."""
    host = manifest.get("host", {})
    config = manifest.get("config", {})
    lines = [
        f"package {manifest.get('package', 'repro')} "
        f"v{manifest.get('package_version', '?')}  "
        f"(created {manifest.get('created_utc', '?')})",
        f"host: {host.get('hostname', '?')}  python {host.get('python', '?')}"
        f"  numpy {host.get('numpy', '?')}  {host.get('platform', '?')}",
        f"seed: {manifest.get('seed')}",
    ]
    if config:
        rendered = ", ".join(f"{k}={v}" for k, v in config.items())
        lines.append(f"config: {rendered}")
    return "\n".join(lines)


def render_telemetry(payload: Dict[str, Any]) -> str:
    """The full terminal report for one telemetry snapshot."""
    sections: List[str] = []
    manifest = payload.get("manifest")
    if manifest:
        sections.append(format_manifest(manifest))
    spans = payload.get("spans", {})
    sections.append(format_span_tree(spans))
    bars = format_stage_bars(spans)
    if bars:
        sections.append(bars)
    sections.append(format_metrics(payload.get("metrics", {})))
    return "\n\n".join(sections)


def format_event_summary(summary: Dict[str, Any]) -> str:
    """The event-derived health block for one run's stream."""
    lines = ["events"]
    status = summary.get("status") or "incomplete"
    lines.append(f"  status: {status}   recorded events: {summary['events']}")
    lines.append(
        f"  trials: {summary['trials_done']}   "
        f"points finished: {summary['points_finished']}"
    )
    lines.append(
        f"  failures: {summary['failures']}   "
        f"pool fallbacks: {summary['pool_fallbacks']}"
    )
    lines.append(
        f"  checkpoint hits: {summary['checkpoint_hits']}   "
        f"saves: {summary['checkpoint_saves']}"
    )
    elapsed = summary.get("elapsed_seconds")
    if isinstance(elapsed, (int, float)):
        lines.append(f"  elapsed: {elapsed:.2f}s")
    heartbeat = summary.get("last_heartbeat")
    if heartbeat:
        rate = heartbeat.get("trials_per_second")
        if isinstance(rate, (int, float)):
            lines.append(f"  final rate: {rate:.2f} trials/s")
    return "\n".join(lines)


def render_run_directory(run: Any) -> str:
    """Report a run directory: manifest, timings, metrics, event health.

    ``run`` is a :class:`repro.telemetry.registry.RunDirectory` (typed
    as ``Any`` to keep this renderer import-light).
    """
    from repro.telemetry.events import summarize_events

    sections: List[str] = [f"run directory: {run.path}"]
    manifest: Dict[str, Any] = {}
    if run.manifest_path.exists():
        manifest = run.read_manifest()
        sections.append(format_manifest(manifest))
    if run.metrics_path.exists():
        snapshot = run.read_metrics()
        spans = snapshot.get("spans", {})
        sections.append(format_span_tree(spans))
        bars = format_stage_bars(spans)
        if bars:
            sections.append(bars)
        sections.append(format_metrics(snapshot.get("metrics", {})))
    events = run.read_events()
    if events:
        sections.append(format_event_summary(summarize_events(events)))
    rows = run.read_rows()
    if rows:
        names = ", ".join(sorted(rows))
        counts = sum(len(p.get("rows", [])) for p in rows.values())
        sections.append(f"results: {names}  ({counts} row(s))")
    return "\n\n".join(sections)
