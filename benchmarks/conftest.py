"""Benchmark harness configuration.

Every ``bench_<artifact>`` module regenerates one table or figure of the
paper and prints it (so ``pytest benchmarks/ --benchmark-only`` doubles
as the reproduction report), while pytest-benchmark times the run.

Telemetry: each benchmark runs with spans enabled and its per-stage
span tree is attached to pytest-benchmark's ``extra_info``, so saved
``BENCH_*.json`` files carry a per-stage wall-clock breakdown alongside
the end-to-end timing.  Set ``REPRO_BENCH_TELEMETRY=0`` to measure the
pure no-op path (e.g. for overhead comparisons).

``air_rate_reference`` runs sweeps on the full-rate reference channel,
which the equivalence benches hold the receiver-rate channel against.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.experiments.common import PreparedLink
from repro.telemetry import get_telemetry
from repro.utils.signal_ops import ReceiverBand, normalize_power


def _at_capture_rate(self, receiver):
    """``PreparedLink.at_receiver`` at the capture rate: the unit-power
    on-air frame itself, with noise white at 20 Msps."""
    on_air = self.on_air
    band = ReceiverBand(
        capture_rate_hz=on_air.sample_rate_hz,
        capture_samples=on_air.samples.size,
        rate_hz=on_air.sample_rate_hz,
    )
    return on_air.with_samples(normalize_power(on_air.samples)), band


@pytest.fixture
def air_rate_reference(monkeypatch):
    """A context manager that runs sweeps on the full-rate reference model.

    Every sweep reads its frames through ``PreparedLink.at_receiver``.
    Inside the context that returns the unit-power 20 Msps capture and a
    white band at that rate, so each row's fading, CFO, phase and noise
    act at the air rate, by the same rule, and the receiver channelizes
    (or naively decimates) every row itself.
    """

    @contextlib.contextmanager
    def reference():
        with monkeypatch.context() as patch:
            patch.setattr(PreparedLink, "at_receiver", _at_capture_rate)
            yield

    return reference


@pytest.fixture
def report(capsys):
    """Print an ExperimentResult outside of pytest's capture."""

    def _report(result) -> None:
        with capsys.disabled():
            print()
            print(result.format_table())

    return _report


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """Record spans per benchmark and attach them to the benchmark JSON."""
    if os.environ.get("REPRO_BENCH_TELEMETRY", "1") == "0":
        yield
        return
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.enable()
    try:
        yield
    finally:
        telemetry.disable()
        benchmark = request.node.funcargs.get("benchmark")
        if benchmark is not None and hasattr(benchmark, "extra_info"):
            snapshot = telemetry.snapshot()
            benchmark.extra_info["telemetry_spans"] = snapshot["spans"]
            benchmark.extra_info["telemetry_counters"] = (
                snapshot["metrics"]["counters"]
            )
        telemetry.reset()
