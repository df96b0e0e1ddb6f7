"""Cross-run regression diffing: rows, counters, and timing trees.

``runs diff A B`` answers "did this change make the sweep slower,
flakier, or *wrong*?" by comparing two run directories:

* **result rows** — cell-by-cell per experiment (NaN == NaN, so an
  undefined cell is not a perpetual diff);
* **counters** — every telemetry counter, with special standing for the
  failure-class counters (trial failures, pool fallbacks);
* **timing** — the span tree flattened to ``path -> seconds`` plus the
  run's wall clock (from the ``run_finished`` event, falling back to
  the finalized manifest).

With ``gate=True`` the diff doubles as a CI tripwire: it fails on any
row diff, any failure-class counter increase, or a wall-clock
regression beyond ``max_regression``.  Wall-clock checks can be
disabled (``wallclock=False``) when comparing against a baseline
recorded on different hardware — rows and failure counters are
host-independent, elapsed seconds are not.

Gauges and histogram percentiles are intentionally *not* gated: they
are descriptive, host-sensitive, and noisy run-to-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.events import summarize_events
from repro.telemetry.registry import RunDirectory

#: Counters whose *increase* indicates degraded health, gated regardless
#: of wall-clock settings.  Matched by exact name or labeled variant
#: (``engine.trial_failures{type=ValueError}``).
FAILURE_COUNTERS = (
    "engine.trial_failures",
    "engine.pool_fallbacks",
)


def parse_percentage(text: str) -> float:
    """``"20%"`` or ``"0.2"`` -> ``0.2``; rejects negatives."""
    raw = str(text).strip()
    try:
        value = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
    except ValueError:
        raise ConfigurationError(f"not a percentage: {text!r}") from None
    if value < 0:
        raise ConfigurationError(f"regression threshold must be >= 0: {text!r}")
    return value


def _is_failure_counter(key: str) -> bool:
    bare = key.split("{", 1)[0]
    return bare in FAILURE_COUNTERS


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return a == b
    return a == b


def flatten_span_tree(
    tree: Optional[Dict[str, Any]], prefix: str = ""
) -> Dict[str, Tuple[float, int]]:
    """Span tree -> ``{"run/sweep/point": (seconds, count)}``."""
    flat: Dict[str, Tuple[float, int]] = {}
    if not tree:
        return flat
    path = f"{prefix}/{tree.get('name', '?')}" if prefix else str(
        tree.get("name", "?")
    )
    flat[path] = (
        float(tree.get("seconds", 0.0)),
        int(tree.get("count", 0)),
    )
    for child in tree.get("children", []):
        flat.update(flatten_span_tree(child, path))
    return flat


def diff_rows(
    rows_a: Dict[str, Dict[str, Any]],
    rows_b: Dict[str, Dict[str, Any]],
) -> List[str]:
    """Human-readable row differences between two runs' stored results."""
    problems: List[str] = []
    for experiment in sorted(set(rows_a) | set(rows_b)):
        payload_a = rows_a.get(experiment)
        payload_b = rows_b.get(experiment)
        if payload_a is None or payload_b is None:
            side = "A" if payload_a is None else "B"
            problems.append(f"{experiment}: missing from run {side}")
            continue
        if payload_a.get("columns") != payload_b.get("columns"):
            problems.append(
                f"{experiment}: column mismatch "
                f"{payload_a.get('columns')} vs {payload_b.get('columns')}"
            )
            continue
        table_a = payload_a.get("rows", [])
        table_b = payload_b.get("rows", [])
        if len(table_a) != len(table_b):
            problems.append(
                f"{experiment}: row count {len(table_a)} vs {len(table_b)}"
            )
            continue
        columns = payload_a.get("columns", [])
        for index, (row_a, row_b) in enumerate(zip(table_a, table_b)):
            for col, (cell_a, cell_b) in enumerate(zip(row_a, row_b)):
                if not _values_equal(cell_a, cell_b):
                    name = columns[col] if col < len(columns) else f"col{col}"
                    problems.append(
                        f"{experiment}: row {index} {name}: "
                        f"{cell_a!r} != {cell_b!r}"
                    )
    return problems


def _counters_of(run: RunDirectory) -> Dict[str, float]:
    if not run.metrics_path.exists():
        return {}
    snapshot = run.read_metrics()
    metrics = snapshot.get("metrics", snapshot)
    counters = metrics.get("counters", {})
    return {str(k): float(v) for k, v in counters.items()}


def _spans_of(run: RunDirectory) -> Dict[str, Tuple[float, int]]:
    if not run.metrics_path.exists():
        return {}
    return flatten_span_tree(run.read_metrics().get("spans"))


def _wallclock_of(run: RunDirectory) -> Optional[float]:
    summary = summarize_events(run.read_events())
    elapsed = summary.get("elapsed_seconds")
    if isinstance(elapsed, (int, float)):
        return float(elapsed)
    if run.manifest_path.exists():
        manifest = run.read_manifest()
        value = manifest.get("elapsed_seconds")
        if isinstance(value, (int, float)):
            return float(value)
    return None


@dataclass
class RunDiff:
    """Everything ``runs diff`` learned, plus the gate verdict."""

    run_a: str
    run_b: str
    row_diffs: List[str] = field(default_factory=list)
    counter_diffs: List[str] = field(default_factory=list)
    timing_diffs: List[str] = field(default_factory=list)
    wallclock_a: Optional[float] = None
    wallclock_b: Optional[float] = None
    gate_failures: List[str] = field(default_factory=list)

    @property
    def gate_passed(self) -> bool:
        return not self.gate_failures


def diff_runs(
    run_a: RunDirectory,
    run_b: RunDirectory,
    max_regression: float = 0.2,
    wallclock: bool = True,
) -> RunDiff:
    """Compare run ``b`` (candidate) against run ``a`` (baseline).

    ``max_regression`` bounds how much slower ``b`` may be before the
    gate trips (0.2 = 20 %); set ``wallclock=False`` to skip elapsed-
    time checks entirely (cross-host baselines).
    """
    diff = RunDiff(run_a=run_a.run_id, run_b=run_b.run_id)

    diff.row_diffs = diff_rows(run_a.read_rows(), run_b.read_rows())
    for problem in diff.row_diffs:
        diff.gate_failures.append(f"rows: {problem}")

    counters_a = _counters_of(run_a)
    counters_b = _counters_of(run_b)
    for key in sorted(set(counters_a) | set(counters_b)):
        value_a = counters_a.get(key, 0.0)
        value_b = counters_b.get(key, 0.0)
        if value_a == value_b:
            continue
        line = f"{key}: {value_a:g} -> {value_b:g}"
        diff.counter_diffs.append(line)
        if _is_failure_counter(key) and value_b > value_a:
            diff.gate_failures.append(f"counter regression: {line}")

    spans_a = _spans_of(run_a)
    spans_b = _spans_of(run_b)
    for path in sorted(set(spans_a) | set(spans_b)):
        seconds_a, _ = spans_a.get(path, (0.0, 0))
        seconds_b, _ = spans_b.get(path, (0.0, 0))
        if seconds_a == 0.0 and seconds_b == 0.0:
            continue
        ratio = seconds_b / seconds_a if seconds_a > 0 else math.inf
        diff.timing_diffs.append(
            f"{path}: {seconds_a:.3f}s -> {seconds_b:.3f}s (x{ratio:.2f})"
        )

    diff.wallclock_a = _wallclock_of(run_a)
    diff.wallclock_b = _wallclock_of(run_b)
    if (
        wallclock
        and diff.wallclock_a is not None
        and diff.wallclock_b is not None
        and diff.wallclock_a > 0
        and diff.wallclock_b > diff.wallclock_a * (1.0 + max_regression)
    ):
        diff.gate_failures.append(
            "wall-clock regression: "
            f"{diff.wallclock_a:.2f}s -> {diff.wallclock_b:.2f}s "
            f"(> {max_regression:.0%} allowed)"
        )
    return diff


def format_run_diff(diff: RunDiff, gate: bool = False) -> str:
    """Render a :class:`RunDiff` for humans (and CI logs)."""
    lines = [f"run diff: {diff.run_a} (baseline) vs {diff.run_b} (candidate)"]

    lines.append(f"rows: {len(diff.row_diffs)} difference(s)")
    lines.extend(f"  {item}" for item in diff.row_diffs[:20])
    if len(diff.row_diffs) > 20:
        lines.append(f"  ... and {len(diff.row_diffs) - 20} more")

    lines.append(f"counters: {len(diff.counter_diffs)} changed")
    lines.extend(f"  {item}" for item in diff.counter_diffs)

    if diff.wallclock_a is not None or diff.wallclock_b is not None:
        def _fmt(value: Optional[float]) -> str:
            return f"{value:.2f}s" if value is not None else "?"
        lines.append(
            f"wall clock: {_fmt(diff.wallclock_a)} -> {_fmt(diff.wallclock_b)}"
        )
    if diff.timing_diffs:
        lines.append("timing tree:")
        lines.extend(f"  {item}" for item in diff.timing_diffs[:30])
        if len(diff.timing_diffs) > 30:
            lines.append(f"  ... and {len(diff.timing_diffs) - 30} more")

    if gate:
        if diff.gate_passed:
            lines.append("gate: PASS")
        else:
            lines.append(f"gate: FAIL ({len(diff.gate_failures)} violation(s))")
            lines.extend(f"  {item}" for item in diff.gate_failures)
    return "\n".join(lines)
