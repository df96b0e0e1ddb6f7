"""Engine failures: a raising trial fails the run; a dead worker goes serial."""

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError, TrialExecutionError
from repro.experiments.engine import MonteCarloEngine, batch_trial
from repro.telemetry import get_telemetry
from repro.utils.rng import spawn_seeds


def _draw_trial(context, args, rng):
    """Deterministic per-seed value; the bit-identity reference."""
    (scale,) = args
    return float(rng.normal()) * scale


def _failing_trial(context, args, rng):
    raise ValueError("always broken")


def _interrupt_trial(context, args, rng):
    raise KeyboardInterrupt


#: Seeds of a 20-trial run at ``rng=5``; trial :data:`_FAILING_TRIAL`
#: raises in the planted trials below.
_SEEDS = spawn_seeds(5, 20)
_FAILING_TRIAL = 11


def _raise_on_failing_seed(rng):
    if int(rng.bit_generator.seed_seq.entropy) == _SEEDS[_FAILING_TRIAL]:
        raise ValueError("planted failure")


def _planted_trial(context, args, rng):
    """A scalar trial that raises on one chosen seed."""
    _raise_on_failing_seed(rng)
    return float(rng.normal())


@batch_trial
def _planted_batch_trial(context, args, rngs):
    """The batched twin of :func:`_planted_trial`."""
    for rng in rngs:
        _raise_on_failing_seed(rng)
    return [float(rng.normal()) for rng in rngs]


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
            raise BrokenProcessPool("simulated worker death")
        return self._value


class _FakePool:
    """ProcessPoolExecutor stand-in executing chunks in-process.

    With ``crash_pools = 1`` the first instance completes only its
    first submitted chunk and reports every later chunk as lost to a
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
        assert failure.seeds == (spawn_seeds(1, 3)[0],)
        assert failure.exception_type == "ValueError"
        assert "always broken" in failure.message
        assert "ValueError" in failure.traceback
        # The rendered error names the trial and its seed, and carries
        # the original traceback text.
        assert f"trial 0 (seed {failure.seeds[0]})" in str(excinfo.value)
        assert "original traceback" in str(excinfo.value)

    def test_keyboard_interrupt_is_not_isolated(self):
        with MonteCarloEngine().session({}) as session:
            with pytest.raises(KeyboardInterrupt):
                session.run(_interrupt_trial, 2, rng=1)

    def test_invalid_policy_rejected(self):
        # A raise always fails the run: the policy keywords are gone.
        with pytest.raises(TypeError):
            MonteCarloEngine(on_error="skip")
        with pytest.raises(TypeError):
            MonteCarloEngine(max_retries=2)

    def test_failures_counted_by_type(self):
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            with MonteCarloEngine().session({}) as session:
                with pytest.raises(TrialExecutionError):
                    session.run(_failing_trial, 3, rng=1)
            counters = telemetry.registry.counters
            assert counters["engine.trial_failures"].value == 1
            assert counters["engine.trial_failures{type=ValueError}"].value == 1
        finally:
            telemetry.disable()
            telemetry.reset()


def _failure_of(run):
    """The :class:`TrialFailure` ``run()`` raises; counts it by type."""
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.enable()
    try:
        with pytest.raises(TrialExecutionError) as excinfo:
            run()
        counters = telemetry.registry.counters
        assert counters["engine.trial_failures{type=ValueError}"].value == 1
    finally:
        telemetry.disable()
        telemetry.reset()
    return excinfo.value.failure


class TestNoExceptionBecomesARow:
    """A trial raising on one seed fails every kind of run."""

    def _run(self, trial, workers=1, chunk_size=4):
        engine = MonteCarloEngine(workers=workers, chunk_size=chunk_size)
        with engine.session({}) as session:
            return session.run(trial, len(_SEEDS), rng=5)

    @pytest.mark.parametrize("trial, first, rows", [
        (_planted_trial, _FAILING_TRIAL, 1),
        (_planted_batch_trial, 8, 4),
    ], ids=["scalar", "batch"])
    def test_serial_and_parallel_name_the_same_dispatch(
        self, trial, first, rows
    ):
        serial = _failure_of(lambda: self._run(trial))
        parallel = _failure_of(lambda: self._run(trial, workers=2))
        assert serial == parallel
        assert serial.trial_index == first
        assert serial.seeds == tuple(_SEEDS[first:first + rows])

    def test_batch_error_names_every_seed_of_its_dispatch(self):
        with pytest.raises(TrialExecutionError) as excinfo:
            self._run(_planted_batch_trial)
        message = str(excinfo.value)
        assert "trials 8–11 (batch of 4, seeds " in message
        assert all(str(seed) in message for seed in _SEEDS[8:12])

    @pytest.mark.parametrize("trial, first", [
        (_planted_trial, _FAILING_TRIAL), (_planted_batch_trial, 8),
    ], ids=["scalar", "batch"])
    def test_incremental_run_fails_in_its_increment(self, trial, first):
        with MonteCarloEngine().session({}) as session:
            stream = session.run_until(trial, rng=5)
            assert len(stream.extend(8)) == 8
            failure = _failure_of(lambda: stream.extend(8))
        assert failure.trial_index == first
        assert stream.trials == 8

    @pytest.mark.parametrize("trial", [_planted_trial, _planted_batch_trial],
                             ids=["scalar", "batch"])
    def test_crash_recovery_raises_the_serial_failure(self, trial, monkeypatch):
        serial = _failure_of(lambda: self._run(trial))

        class Pool(_FakePool):
            crash_pools = 1
            instances = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=4)
        with engine.session({}) as session:
            recovered = _failure_of(
                lambda: session.run(trial, len(_SEEDS), rng=5)
            )
        assert recovered == serial
        assert engine.used_fallback


class TestPoolCrashRecovery:
    def test_completed_chunks_survive_a_pool_crash(self, monkeypatch):
        baseline = _serial_baseline()

        class Pool(_FakePool):
            crash_pools = 1
            instances = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        telemetry = get_telemetry()
        telemetry.reset()
        telemetry.enable()
        try:
            engine = MonteCarloEngine(workers=2, chunk_size=3)
            with engine.session({}) as session:
                results = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
            counters = telemetry.registry.counters
            # 10 trials in chunks of 3 -> 4 chunks; the pool completed
            # one before dying, so the parent re-ran exactly the 7 lost.
            assert counters["engine.trials_reexecuted"].value == 7
            assert counters[
                "engine.pool_fallbacks{reason=BrokenProcessPool}"
            ].value == 1
        finally:
            telemetry.disable()
            telemetry.reset()
        assert results == baseline
        assert engine.used_fallback
        assert len(Pool.instances) == 1
        assert len(Pool.instances[0].futures) == 4

    def test_crash_degrades_to_sequential(self, monkeypatch):
        baseline = _serial_baseline()

        class Pool(_FakePool):
            crash_pools = 1
            instances = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=3)
        with engine.session({}) as session:
            results = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
            again = session.run(_draw_trial, 10, rng=5, static_args=(1.5,))
        assert results == baseline
        assert again == baseline
        assert engine.used_fallback
        # No second pool: after the worker died, the session stopped
        # trusting pools for its remaining runs.
        assert len(Pool.instances) == 1
        assert len(Pool.instances[0].futures) == 4

    def test_close_cancels_queued_futures(self, monkeypatch):
        class Pool(_FakePool):
            instances = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=2, chunk_size=5)
        session = engine.session({})
        session.run(_draw_trial, 4, rng=1, static_args=(1.0,))
        session.close()
        assert Pool.instances[0].shutdown_kwargs == {
            "wait": True, "cancel_futures": True,
        }


class TestWorkerSizing:
    def test_auto_resolves_to_host_cpu_count(self):
        assert MonteCarloEngine(workers="auto").workers == (os.cpu_count() or 1)

    def test_other_strings_rejected(self):
        with pytest.raises(ConfigurationError):
            MonteCarloEngine(workers="many")

    def test_oversubscription_warns_once_per_pool(self, monkeypatch):
        class Pool(_FakePool):
            instances = []

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        engine = MonteCarloEngine(workers=(os.cpu_count() or 1) + 1)
        with pytest.warns(RuntimeWarning, match="exceeds the host"):
            with engine.session({}) as session:
                session.run(_draw_trial, 2, rng=1, static_args=(1.0,))
