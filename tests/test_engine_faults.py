"""Engine fault tolerance: isolation, retries, pool-crash recovery."""

import math
import os

import pytest

from repro.errors import ConfigurationError, TrialExecutionError
from repro.experiments import engine as engine_module
from repro.experiments import fig13_rssi
from repro.experiments.engine import FAULT_EVERY_ENV, MonteCarloEngine
from repro.telemetry import get_telemetry


def _draw_trial(context, args, rng):
    """Deterministic per-seed value; the bit-identity reference."""
    (scale,) = args
    return float(rng.normal()) * scale


def _failing_trial(context, args, rng):
    raise ValueError("always broken")


def _interrupt_trial(context, args, rng):
    raise KeyboardInterrupt


@pytest.fixture(autouse=True)
def _clean_fault_drill(monkeypatch):
    """Isolate each test from the process-wide fault-drill state."""
    monkeypatch.delenv(FAULT_EVERY_ENV, raising=False)
    engine_module._FAULTED_SEEDS.clear()
    yield
    engine_module._FAULTED_SEEDS.clear()


def _serial_baseline(count=10, rng=5, scale=1.5):
    with MonteCarloEngine().session({}) as session:
        return session.run(_draw_trial, count, rng=rng, static_args=(scale,))


class _FakeFuture:
    """Runs the chunk eagerly in-process; optionally reports a crash."""

    def __init__(self, fn, args, crash):
        self._crash = crash
        self._value = None if crash else fn(*args)

    def result(self):
        if self._crash:
            raise engine_module.BrokenProcessPool("simulated worker death")
        return self._value


class _FakePool:
    """ProcessPoolExecutor stand-in executing chunks in-process.

    The first ``crash_pools`` instances complete only their first
    submitted chunk and report every later chunk as lost to a
    ``BrokenProcessPool`` — the shape of a worker OOM kill mid-sweep.
    Subclass per test so the instance/crash counters start fresh.
    """

    crash_pools = 0

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        if initializer is not None:
            initializer(*initargs)
        cls = type(self)
        if not hasattr(cls, "instances"):
            cls.instances = []
        self.crashing = len(cls.instances) < cls.crash_pools
        cls.instances.append(self)
        self.futures = []
        self.shutdown_kwargs = None

    def submit(self, fn, *args):
        crash = self.crashing and len(self.futures) >= 1
        future = _FakeFuture(fn, args, crash)
        self.futures.append(future)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdown_kwargs = {"wait": wait, "cancel_futures": cancel_futures}


class TestTrialIsolation:
    def test_raise_policy_surfaces_structured_failure(self):
        with MonteCarloEngine().session({}) as session:
            with pytest.raises(TrialExecutionError) as excinfo:
                session.run(_failing_trial, 3, rng=1)
        failure = excinfo.value.failure
        assert failure.trial_index == 0
        assert failure.exception_type == "ValueError"
        assert failure.attempts == 1
        assert "always broken" in failure.message
        assert "ValueError" in failure.traceback
        # The rendered error carries the original traceback text.
        assert "original traceback" in str(excinfo.value)

    def test_skip_policy_records_failures_and_none_slots(self):
        engine = MonteCarloEngine(on_error="skip")
        with engine.session({}) as session:
            results = session.run(_failing_trial, 5, rng=1)
            assert results == [None] * 5
            assert [f.trial_index for f in session.failures] == list(range(5))
            assert {f.exception_type for f in session.failures} == {"ValueError"}
            # The session stays usable after recorded failures.
            assert session.run(_draw_trial, 3, rng=2, static_args=(1.0,)) == \
                _serial_baseline(count=3, rng=2, scale=1.0)

    def test_skip_policy_parallel_matches_serial_accounting(self):
        engine = MonteCarloEngine(workers=2, chunk_size=2, on_error="skip")
        with engine.session({}) as session:
            results = session.run(_failing_trial, 5, rng=1)
            assert results == [None] * 5
            assert [f.trial_index for f in session.failures] == list(range(5))

    def test_keyboard_interrupt_is_not_isolated(self):
        engine = MonteCarloEngine(on_error="skip")
        with engine.session({}) as session:
            with pytest.raises(KeyboardInterrupt):
                session.run(_interrupt_trial, 2, rng=1)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(on_error="ignore")
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(max_retries=-1)


class TestRetry:
    def test_retry_recovers_transient_faults_bit_identically(self, monkeypatch):
        baseline = _serial_baseline()
        monkeypatch.setenv(FAULT_EVERY_ENV, "1")

        engine_module._FAULTED_SEEDS.clear()
        engine = MonteCarloEngine(on_error="retry")
        with engine.session({}) as session:
            assert session.run(_draw_trial, 10, rng=5,
                               static_args=(1.5,)) == baseline

        engine_module._FAULTED_SEEDS.clear()
        engine = MonteCarloEngine(workers=2, chunk_size=3, on_error="retry")
        with engine.session({}) as session:
            assert session.run(_draw_trial, 10, rng=5,
                               static_args=(1.5,)) == baseline

    def test_retry_exhaustion_raises_with_attempt_count(self):
        engine = MonteCarloEngine(on_error="retry", max_retries=2)
        with engine.session({}) as session:
            with pytest.raises(TrialExecutionError) as excinfo:
                session.run(_failing_trial, 2, rng=1)
        assert excinfo.value.failure.attempts == 3

    def test_retry_and_failure_counters(self, monkeypatch):
        monkeypatch.setenv(FAULT_EVERY_ENV, "1")
        engine_module._FAULTED_SEEDS.clear()
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            engine = MonteCarloEngine(on_error="retry")
            with engine.session({}) as session:
                session.run(_draw_trial, 5, rng=5, static_args=(1.0,))
            counters = telemetry.registry.counters
            assert counters["engine.retries"].value == 5
            assert "engine.trial_failures" not in counters
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_exhausted_failures_counted_by_type(self):
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            engine = MonteCarloEngine(on_error="skip")
            with engine.session({}) as session:
                session.run(_failing_trial, 3, rng=1)
            counters = telemetry.registry.counters
            assert counters["engine.trial_failures"].value == 3
            assert counters["engine.trial_failures{type=ValueError}"].value == 3
        finally:
            telemetry.disable()
            telemetry.reset()


class TestEmptyPoints:
    def test_fig13_point_with_every_trial_skipped_is_nan(self, monkeypatch):
        """Every trial faults and is skipped: the row reports NaN."""
        monkeypatch.setenv(FAULT_EVERY_ENV, "1")
        result = fig13_rssi.run(
            distances_m=(1, 8), packets_per_point=2, rng=1, on_error="skip"
        )
        assert [row["distance_m"] for row in result.rows] == [1, 8]
        for row in result.rows:
            assert math.isfinite(row["budget_rssi_dbm"])
            assert math.isnan(row["measured_rssi_dbm"])
            assert math.isnan(row["fading_spread_db"])


class TestPoolCrashRecovery:
    def test_completed_chunks_survive_a_pool_crash(self, monkeypatch):
        baseline = _serial_baseline()

        class Pool(_FakePool):
            crash_pools = 1
            instances = []

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=3)
        with engine.session({}) as session:
            results = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
            assert session.pool_rebuilds == 1
        assert results == baseline
        assert not engine.used_fallback
        # 10 trials in chunks of 3 -> 4 chunks; the first pool completed
        # one before dying, so the rebuilt pool sees exactly the 3 lost.
        assert len(Pool.instances) == 2
        assert len(Pool.instances[0].futures) == 4
        assert len(Pool.instances[1].futures) == 3

    def test_second_crash_degrades_to_sequential(self, monkeypatch):
        baseline = _serial_baseline()

        class Pool(_FakePool):
            crash_pools = 2
            instances = []

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=3)
        with engine.session({}) as session:
            results = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
            again = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
        assert results == baseline
        assert again == baseline
        assert engine.used_fallback
        # No third pool: after the rebuilt pool died too, the session
        # stopped trusting pools for its remaining runs.
        assert len(Pool.instances) == 2

    def test_crash_recovery_with_skip_keeps_failure_accounting(self, monkeypatch):
        class Pool(_FakePool):
            crash_pools = 1
            instances = []

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=2, on_error="skip")
        with engine.session({}) as session:
            results = session.run(_failing_trial, 6, rng=1)
            assert results == [None] * 6
            assert [f.trial_index for f in session.failures] == list(range(6))

    def test_close_cancels_queued_futures(self, monkeypatch):
        class Pool(_FakePool):
            instances = []

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=5)
        session = engine.session({})
        session.run(_draw_trial, 4, rng=1, static_args=(1.0,))
        session.close()
        assert Pool.instances[0].shutdown_kwargs == {
            "wait": True, "cancel_futures": True,
        }


class TestSequentialFallbackPolicies:
    def _break_pool_creation(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process spawning in this sandbox")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", broken_pool)

    def test_fallback_honors_skip(self, monkeypatch):
        self._break_pool_creation(monkeypatch)
        engine = MonteCarloEngine(workers=4, on_error="skip")
        with engine.session({}) as session:
            results = session.run(_failing_trial, 4, rng=1)
            assert results == [None] * 4
            assert len(session.failures) == 4
        assert engine.used_fallback

    def test_fallback_retry_matches_serial(self, monkeypatch):
        baseline = _serial_baseline()
        self._break_pool_creation(monkeypatch)
        monkeypatch.setenv(FAULT_EVERY_ENV, "1")
        engine_module._FAULTED_SEEDS.clear()
        engine = MonteCarloEngine(workers=4, on_error="retry")
        with engine.session({}) as session:
            assert session.run(_draw_trial, 10, rng=5,
                               static_args=(1.5,)) == baseline
        assert engine.used_fallback


class TestWorkerSizing:
    def test_auto_resolves_to_host_cpu_count(self):
        assert MonteCarloEngine(workers="auto").workers == (os.cpu_count() or 1)

    def test_other_strings_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(workers="many")

    def test_oversubscription_warns_once_per_pool(self, monkeypatch):
        class Pool(_FakePool):
            instances = []

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=(os.cpu_count() or 1) + 1)
        with pytest.warns(RuntimeWarning, match="exceeds the host"):
            with engine.session({}) as session:
                session.run(_draw_trial, 2, rng=1, static_args=(1.0,))
