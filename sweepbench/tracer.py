"""Per-layer tracing for the sweep benchmark.

The traced pass replaces the public entry point of each program layer
with a timing wrapper, runs a sweep with program telemetry on, and then
restores the originals, so timed runs always execute unpatched code.

Each wrapper records its calls, the rows it handled, and its *self* time:
its duration minus the time spent in nested wrapped calls.  Summing self
times over a layer gives that layer's busy time without double counting,
and the layers together account for the traced wall clock.  Calls nested
inside an active call of the same *group* (``OqpskDemodulator.demodulate``
delegating to ``demodulate_batch``) count once, at the outermost call.

A function imported by name into other modules is patched in every
``repro`` module that binds it; methods are patched on the class that
defines them.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers of the program, in the order the per-layer metrics list them.
LAYERS = ("experiments", "attack", "channel", "zigbee", "defense")

#: Receive-chain stages timed inside ``zigbee.receive``; parse is the rest.
ZIGBEE_STAGES = ("channelize", "sync", "demodulate", "despread")


class TraceCheckError(RuntimeError):
    """The traced pass disagrees with the program or missed a layer."""


@dataclass
class EntryStats:
    """What one wrapped entry point saw during a traced sweep.

    ``hits`` counts every call; ``calls``, ``seconds`` and ``durations``
    only calls made outside another call of the same group.
    """

    name: str
    layer: str
    group: str
    hits: int = 0
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    rows: int = 0
    durations: List[float] = field(default_factory=list)
    outcomes: Dict[str, int] = field(default_factory=dict)

    def bump(self, outcome: str, amount: int = 1) -> None:
        """Add ``amount`` to one named outcome count."""
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + amount


# -- outcome observers: (stats, args, kwargs, result, error) -> None ----------


def _observe_run(stats, args, kwargs, result, error):
    # EngineSession.run(self, trial, count, ...)
    stats.rows += int(kwargs["count"] if "count" in kwargs else args[2])


def _observe_extend(stats, args, kwargs, result, error):
    # IncrementalRun.extend(self, count)
    stats.rows += int(kwargs["count"] if "count" in kwargs else args[1])


def _observe_settle(stats, args, kwargs, result, error):
    stats.bump("trials_saved", int(args[0].trials_saved))


def _observe_receive(stats, args, kwargs, result, error):
    from repro.errors import SynchronizationError

    stats.rows += 1
    if error is not None:
        if isinstance(error, SynchronizationError):
            stats.bump("sync_lost")
        return
    stats.bump("fcs_ok", int(bool(result.fcs_ok)))


def _observe_receive_batch(stats, args, kwargs, result, error):
    if error is not None:
        return
    stats.rows += len(result)
    stats.bump("sync_lost", sum(packet is None for packet in result))
    stats.bump(
        "fcs_ok", sum(bool(p.fcs_ok) for p in result if p is not None)
    )


def _observe_statistic(stats, args, kwargs, result, error):
    if error is None:
        stats.rows += 1


def _observe_statistic_batch(stats, args, kwargs, result, error):
    if error is None:
        stats.rows += len(result)


@dataclass(frozen=True)
class EntryPoint:
    """One public entry point the traced pass wraps.

    Attributes:
        layer: program layer its self time is attributed to.
        group: stage it belongs to (nested calls count once per group).
        module: module that defines it.
        qualname: ``function`` or ``Class.method`` inside ``module``.
        observe: optional outcome observer (rows, sync loss, ...).
    """

    layer: str
    group: str
    module: str
    qualname: str
    observe: Optional[Callable[..., None]] = None


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("experiments", "sweep", "repro.experiments.sweep", "run_sweep"),
    EntryPoint("experiments", "engine.run", "repro.experiments.engine",
               "EngineSession.run", _observe_run),
    EntryPoint("experiments", "engine.run", "repro.experiments.engine",
               "IncrementalRun.extend", _observe_extend),
    EntryPoint("experiments", "adaptive.settle", "repro.experiments.adaptive",
               "AdaptiveSweep.settle", _observe_settle),
    EntryPoint("attack", "attack.emulate", "repro.experiments.common",
               "prepare_emulated"),
    EntryPoint("attack", "attack.emulate", "repro.attack.emulator",
               "WaveformEmulationAttack.emulate"),
    EntryPoint("channel", "channel", "repro.experiments.common",
               "transmit_once"),
    EntryPoint("channel", "channel", "repro.experiments.common",
               "transmit_batch"),
    EntryPoint("channel", "channel", "repro.channel.environment",
               "RealEnvironment.channel_at"),
    EntryPoint("zigbee", "zigbee.receive", "repro.zigbee.receiver",
               "ZigBeeReceiver.receive", _observe_receive),
    EntryPoint("zigbee", "zigbee.receive", "repro.zigbee.receiver",
               "ZigBeeReceiver.receive_batch", _observe_receive_batch),
    EntryPoint("zigbee", "zigbee.channelize", "repro.zigbee.receiver",
               "ZigBeeReceiver.channelize"),
    EntryPoint("zigbee", "zigbee.sync", "repro.zigbee.synchronizer",
               "Synchronizer.synchronize"),
    EntryPoint("zigbee", "zigbee.sync", "repro.zigbee.synchronizer",
               "Synchronizer.synchronize_batch"),
    EntryPoint("zigbee", "zigbee.demodulate", "repro.zigbee.oqpsk",
               "OqpskDemodulator.demodulate"),
    EntryPoint("zigbee", "zigbee.demodulate", "repro.zigbee.oqpsk",
               "OqpskDemodulator.demodulate_batch"),
    EntryPoint("zigbee", "zigbee.demodulate", "repro.zigbee.quadrature",
               "QuadratureDemodulator.demodulate"),
    EntryPoint("zigbee", "zigbee.demodulate", "repro.zigbee.quadrature",
               "QuadratureDemodulator.demodulate_batch"),
    EntryPoint("zigbee", "zigbee.despread", "repro.zigbee.spreading",
               "DsssDespreader.despread_arrays"),
    EntryPoint("zigbee", "zigbee.despread", "repro.zigbee.msk",
               "MskDespreader.despread_arrays"),
    EntryPoint("defense", "defense.statistic", "repro.defense.detector",
               "CumulantDetector.statistic", _observe_statistic),
    EntryPoint("defense", "defense.statistic", "repro.defense.detector",
               "CumulantDetector.statistic_batch", _observe_statistic_batch),
)

#: Name the engine's trial dispatches are recorded under.  Trials are
#: handed to the engine through ``StreamSpec.resolve_trial``; the traced
#: pass wraps what it returns, so each call into a (batched or scalar)
#: trial function is one dispatch.
DISPATCH = "engine.dispatch"


class Tracer:
    """Installs layer wrappers, records their calls, and removes them."""

    def __init__(self) -> None:
        self.entries: Dict[str, EntryStats] = {}
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stats(self, name: str, layer: str, group: str) -> EntryStats:
        stats = self.entries.get(name)
        if stats is None:
            stats = self.entries[name] = EntryStats(name, layer, group)
        return stats

    def timed(
        self,
        stats: EntryStats,
        func: Callable,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``func`` wrapped to record calls, self time, and outcomes."""
        group = stats.group
        depth = self._depth
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outermost = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            frame = [0.0]
            stack.append(frame)
            started = time.perf_counter()
            error: Optional[BaseException] = None
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as caught:
                error = caught
                raise
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                depth[group] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats.self_seconds += elapsed - frame[0]
                stats.hits += 1
                if outermost:
                    stats.calls += 1
                    stats.seconds += elapsed
                    stats.durations.append(elapsed)
                if observe is not None:
                    observe(stats, args, kwargs, result, error)

        return wrapper

    def _trial_wrapper(self, trial: Callable) -> Callable:
        """A dispatch-counting wrapper that keeps the batch marker."""
        batched = bool(getattr(trial, "batch", False))
        stats = self._stats(DISPATCH, "experiments", DISPATCH)

        def observe(stats, args, kwargs, result, error):
            rows = len(args[2]) if batched else 1
            stats.rows += rows
            if batched:
                stats.bump("batched_rows", rows)

        # functools.wraps copies ``trial.batch``, so the engine still
        # picks the batched calling convention.
        return self.timed(stats, trial, observe)

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _install(self, entry: EntryPoint) -> None:
        try:
            module = importlib.import_module(entry.module)
            if "." in entry.qualname:
                class_name, method = entry.qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
            else:
                original = getattr(module, entry.qualname)
        except (ImportError, AttributeError, KeyError) as error:
            raise TraceCheckError(
                f"entry point {entry.module}.{entry.qualname} is missing: "
                f"{error!r}"
            ) from error
        stats = self._stats(entry.qualname, entry.layer, entry.group)
        wrapper = self.timed(stats, original, entry.observe)
        if "." in entry.qualname:
            self._patch(owner, method, wrapper)
            return
        # Every program module that imported the function by name holds
        # its own binding; patch them all so no caller bypasses the wrapper.
        for bound in list(sys.modules.values()):
            module_name = getattr(bound, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(bound).items()):
                if value is original:
                    self._patch(bound, attr, wrapper)

    def _install_channels(self) -> None:
        """Wrap ``apply`` on every concrete :class:`Channel` subclass."""
        from repro.channel.base import Channel

        pending = list(Channel.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if "apply" in cls.__dict__:
                stats = self._stats(
                    f"{cls.__name__}.apply", "channel", "channel"
                )
                self._patch(cls, "apply", self.timed(stats, cls.__dict__["apply"]))

    def _install_dispatch(self) -> None:
        from repro.experiments.sweep import StreamSpec

        resolve = StreamSpec.__dict__["resolve_trial"]
        tracer = self

        @functools.wraps(resolve)
        def resolve_trial(spec: Any, batch: bool) -> Callable:
            return tracer._trial_wrapper(resolve(spec, batch))

        self._stats(DISPATCH, "experiments", DISPATCH)
        self._patch(StreamSpec, "resolve_trial", resolve_trial)

    def install(self) -> None:
        """Wrap every entry point; on any failure nothing stays patched."""
        try:
            for entry in ENTRY_POINTS:
                self._install(entry)
            self._install_channels()
            self._install_dispatch()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original binding, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Context manager: wrappers in place only inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every live patch."""
        return list(self._patches)

    # -- aggregation ---------------------------------------------------

    def layer_seconds(self, layer: str) -> float:
        """Busy (self) seconds of one layer."""
        return sum(
            s.self_seconds for s in self.entries.values() if s.layer == layer
        )

    def group(self, group: str) -> EntryStats:
        """Outermost-call totals of one group, merged over its entries."""
        merged = EntryStats(group, "", group)
        for stats in self.entries.values():
            if stats.group != group:
                continue
            merged.calls += stats.calls
            merged.seconds += stats.seconds
            merged.rows += stats.rows
            merged.durations.extend(stats.durations)
            for outcome, count in stats.outcomes.items():
                merged.bump(outcome, count)
        return merged


# -- reading the program's own telemetry --------------------------------------


def counter_total(counters: Dict[str, float], name: str) -> float:
    """Sum of counter ``name`` over all its label sets."""
    return sum(
        value for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def span_seconds(tree: Dict[str, Any], parent: str, child: str) -> float:
    """Seconds of spans named ``child`` directly under spans ``parent``."""
    total = 0.0
    pending = [tree]
    while pending:
        node = pending.pop()
        children = node.get("children", [])
        if node.get("name") == parent:
            total += sum(
                c.get("seconds", 0.0) for c in children
                if c.get("name") == child
            )
        pending.extend(children)
    return total


def percentile_summary(samples: List[float]) -> Dict[str, Any]:
    """Median, plus the highest percentile with >= 10 samples beyond it.

    That is the 11th-largest sample, at percentile ``100 * (n - 10) / n``;
    below 11 samples no such percentile exists.
    """
    n = len(samples)
    summary: Dict[str, Any] = {
        "n": n,
        "median": statistics.median(samples) if samples else None,
    }
    if n >= 11:
        summary["percentile"] = round(100 * (n - 10) / n, 1)
        summary["value"] = sorted(samples)[n - 11]
    return summary


def layer_metrics(
    tracer: Tracer,
    counters: Dict[str, float],
    spans: Dict[str, Any],
    wall_seconds: float,
    expected: Tuple[str, ...],
) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep, after the self-check.

    Raises :class:`TraceCheckError` when an expected entry point saw no
    call or a wrapper's count disagrees with the program's counters.
    """
    problems = [
        f"{name} saw no calls" for name in expected
        if name not in tracer.entries or tracer.entries[name].hits == 0
    ]
    runs = tracer.group("engine.run")
    dispatch = tracer.group(DISPATCH)
    receive = tracer.group("zigbee.receive")
    screened = tracer.group("defense.statistic").rows
    saved = tracer.group("adaptive.settle").outcomes.get("trials_saved", 0)
    engine_trials = counter_total(counters, "engine.trials")
    checks = [
        ("engine.run/extend trials", runs.rows, engine_trials),
        ("dispatched rows", dispatch.rows, engine_trials),
        ("batched dispatched rows", dispatch.outcomes.get("batched_rows", 0),
         counter_total(counters, "engine.batched_trials")),
        ("adaptive trials saved", saved,
         counter_total(counters, "engine.trials_saved")),
        ("screened rows", screened,
         counter_total(counters, "detector.decisions")),
        ("received rows", receive.rows,
         counter_total(counters, "zigbee.packets")),
        ("sync-lost rows", receive.outcomes.get("sync_lost", 0),
         counters.get("zigbee.packets{outcome=sync_lost}", 0)),
        ("fcs-ok rows", receive.outcomes.get("fcs_ok", 0),
         counters.get("zigbee.packets{outcome=fcs_ok}", 0)),
    ]
    problems.extend(
        f"{label}: wrappers saw {seen}, program counted {counted:g}"
        for label, seen, counted in checks if seen != counted
    )
    if problems:
        raise TraceCheckError("; ".join(problems))

    stages = {
        stage: tracer.group(f"zigbee.{stage}").seconds for stage in ZIGBEE_STAGES
    }
    # The batched channelizer has no public entry point; its time comes
    # from the program's own span inside ``receive_batch``.
    stages["channelize"] += span_seconds(
        spans, "zigbee.receive_batch", "zigbee.channelize"
    )
    demodulate = tracer.group("zigbee.demodulate")
    busy = {layer: tracer.layer_seconds(layer) for layer in LAYERS}
    metrics = {
        "engine.trials": float(runs.rows),
        "adaptive.trials_saved": float(saved),
        "engine.dispatches": float(dispatch.calls),
        "engine.rows_per_dispatch": dispatch.rows / max(dispatch.calls, 1),
        "engine.self_s": busy["experiments"],
        "attack.emulate_s": busy["attack"],
        "channel.busy_s": busy["channel"],
        "zigbee.receive_s": receive.seconds,
        "zigbee.calls": float(receive.calls),
        "zigbee.parse_s": receive.seconds - sum(stages.values()),
        "zigbee.demodulate_ms_per_call":
            1e3 * demodulate.seconds / max(demodulate.calls, 1),
        "zigbee.delivered_ratio":
            receive.outcomes.get("fcs_ok", 0) / max(receive.rows, 1),
        "zigbee.sync_lost": float(receive.outcomes.get("sync_lost", 0)),
        "defense.statistic_s": busy["defense"],
        "defense.screened": float(screened),
        "defense.screened_ratio": screened / max(runs.rows, 1),
        "trace.attributed_fraction": sum(busy.values()) / wall_seconds,
    }
    for stage, seconds in stages.items():
        metrics[f"zigbee.{stage}_s"] = seconds
    return metrics


def entry_summaries(tracer: Tracer) -> Dict[str, Dict[str, Any]]:
    """Per-entry call counts, self time and per-call percentiles."""
    return {
        name: {
            "layer": stats.layer,
            "calls": stats.calls,
            "hits": stats.hits,
            "rows": stats.rows,
            "self_s": stats.self_seconds,
            "per_call_s": percentile_summary(stats.durations),
        }
        for name, stats in sorted(tracer.entries.items())
        if stats.hits
    }
