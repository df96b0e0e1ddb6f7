"""Trial-level parallel Monte Carlo execution engine.

Every paper artifact is a Monte Carlo loop — ``trials`` independent
noisy transmissions per sweep point, each consuming its own RNG stream
from the :func:`repro.utils.rng.spawn_rngs` discipline.  This module
fans those trials out to a ``ProcessPoolExecutor`` while keeping the
results **bit-identical to the serial loop at the same seed, regardless
of worker count or chunk size**:

* stream seeds are drawn once in the parent, in trial order, via
  :func:`repro.utils.rng.spawn_seeds` — exactly the integers the serial
  ``spawn_rngs`` path would use — and each worker reconstructs its
  generator from the seed it is handed;
* shared per-experiment state (prepared waveforms, receivers,
  detectors) is pickled into each worker once at pool start-up through
  the executor's initializer, never per trial;
* results come back tagged with their trial index and are reassembled
  in trial order before any reduction runs.

Telemetry recorded inside workers (spans, counters, histograms) is
serialized per chunk via :meth:`Telemetry.dump_state` and folded back
into the parent's tree with :meth:`Telemetry.merge_state`, so
``--telemetry`` output stays complete under parallelism (histogram
percentile reservoirs merge deterministically but depend on chunking;
counts, sums, and extrema are exact).

Live events (:mod:`repro.telemetry.events`) are emitted **from the
parent only**, as chunks complete: per-trial ``trial_retry`` /
``trial_failure`` records followed by one ``heartbeat`` per chunk, plus
``pool_rebuild`` / ``pool_fallback`` at the recovery boundaries.  The
serial path executes in the same chunks as the parallel path (see
:meth:`MonteCarloEngine.resolve_chunk_size`), so for a fixed explicit
``chunk_size`` and seed the *sequence of event types* is identical
serial vs parallel — and the bit-identical-rows guarantee is untouched,
because emission happens after results are already collected.

Fault tolerance — long sweeps survive misbehaving trials and dying
workers instead of discarding hours of completed points:

* **trial isolation** — an exception inside a trial is captured as a
  structured :class:`TrialFailure` (index, seed, type, traceback) and
  handled per the engine's ``on_error`` policy: ``"raise"`` (default)
  surfaces it as :class:`~repro.errors.TrialExecutionError`,
  ``"retry"`` re-executes the trial up to ``max_retries`` times with a
  generator rebuilt **from the same seed** (so a recovered transient
  fault yields the bit-identical row the unfaulted run produces), and
  ``"skip"`` records the failure and leaves ``None`` in that trial's
  result slot;
* **pool-crash recovery** — a worker death (OOM kill, segfault)
  surfaces as ``BrokenProcessPool`` during result collection; the
  session keeps every chunk that already completed, rebuilds the pool
  once, and re-executes only the lost chunks — in the parent process
  if the rebuild fails too;
* **fault drills** — set ``REPRO_ENGINE_FAULT_EVERY=N`` to raise an
  :class:`InjectedFaultError` on the first execution of every trial
  whose stream seed is divisible by ``N``; with ``on_error="retry"``
  the sweep must still reproduce the unfaulted rows (CI runs exactly
  this drill).

Usage::

    engine = MonteCarloEngine(workers=4, chunk_size=25)
    with engine.session({"prepared": link, "receiver": rx}) as session:
        outcomes = session.run(my_trial, trials, rng=point_rng,
                               static_args=(snr_db,))

where ``my_trial(context, static_args, rng)`` is a **module-level**
(picklable) function returning a picklable value.  ``workers=None`` or
``1`` runs the same code path in process; ``workers="auto"`` resolves
to the host CPU count; if the pool cannot be created (restricted
sandboxes, missing semaphores) the engine falls back to the sequential
executor and records it on ``engine.used_fallback``.
"""

from __future__ import annotations

import math
import os
import traceback as traceback_module
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, TrialExecutionError
from repro.telemetry import get_telemetry
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike, ensure_rng, spawn_seeds

#: A single Monte Carlo trial: ``trial(context, static_args, rng)``.
#: Batched trials (see :func:`batch_trial`) instead receive a list of
#: per-trial generators and return one result row per generator.
TrialFn = Callable[[Dict[str, Any], Tuple[Any, ...], np.random.Generator], Any]

#: Chunks target this many dispatches per worker when no explicit
#: ``chunk_size`` is given — large enough to amortize IPC, small enough
#: to load-balance uneven trial costs.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Valid ``on_error`` policies (see :class:`MonteCarloEngine`).
ON_ERROR_POLICIES = ("raise", "retry", "skip")

#: Exception types captured at the trial-isolation boundary.
#: Deliberately the root of the ordinary-exception hierarchy: a trial
#: may raise anything, and the whole point of the ``on_error`` policy is
#: that the *caller* — not the failing trial — decides what happens
#: next.  ``KeyboardInterrupt`` / ``SystemExit`` are not ``Exception``
#: subclasses and still propagate immediately.
ISOLATED_TRIAL_EXCEPTIONS = (Exception,)

#: Environment variable enabling the fault-injection drill: an integer
#: ``N`` makes every trial whose stream seed is divisible by ``N`` raise
#: :class:`InjectedFaultError` on its first execution in each process.
FAULT_EVERY_ENV = "REPRO_ENGINE_FAULT_EVERY"

#: Exception types that mean "the worker pool died under us" while
#: collecting results; anything else raised by a future is a real bug
#: and propagates.
POOL_CRASH_EXCEPTIONS = (BrokenProcessPool, FuturesTimeoutError)


class InjectedFaultError(RuntimeError):
    """A synthetic trial failure raised by the fault-injection drill."""


def batch_trial(trial: Callable) -> Callable:
    """Mark a trial function as batched (``trial.batch = True``).

    A batched trial has the signature ``trial(context, static_args,
    rngs)`` where ``rngs`` is a *list* of per-trial generators — one per
    trial in the chunk, each freshly built from that trial's own spawned
    stream seed in trial order — and must return one result row per
    generator, in the same order.  Because every generator is identical
    to the one a one-row call would get, a batched trial whose kernels
    are row-independent produces the same rows at the same seed for any
    workers/chunk size.
    """
    trial.batch = True
    return trial


def _is_batch_trial(trial: Callable) -> bool:
    """Whether ``trial`` opted into the batched calling convention."""
    return bool(getattr(trial, "batch", False))


def _call_trial(
    trial: TrialFn,
    context: Optional[Dict[str, Any]],
    static_args: Tuple[Any, ...],
    rng: np.random.Generator,
) -> Any:
    """Invoke one trial through its declared calling convention.

    Batched trials execute as a single-row batch here, so retries and
    fallback executions of a row-independent batched trial reproduce its
    batch rows bit-for-bit.
    """
    if _is_batch_trial(trial):
        rows = trial(context, static_args, [rng])
        if len(rows) != 1:
            raise ConfigurationError(
                f"batched trial {getattr(trial, '__name__', trial)!r} "
                f"returned {len(rows)} rows for 1 generator"
            )
        return rows[0]
    return trial(context, static_args, rng)


@dataclass
class TrialFailure:
    """Structured record of one trial that raised instead of returning.

    Attributes:
        trial_index: the trial's position in its ``run`` call.
        seed: the RNG stream seed the trial was handed.
        exception_type: class name of the exception (e.g. ``ValueError``).
        message: ``str(exception)``.
        traceback: the formatted traceback text, preserved across
            process boundaries where the live exception object may not
            unpickle.
        attempts: executions performed, including retries.
    """

    trial_index: int
    seed: int
    exception_type: str
    message: str
    traceback: str
    attempts: int


# Worker-process globals installed by the pool initializer.
_WORKER_CONTEXT: Optional[Dict[str, Any]] = None

#: Stream seeds already faulted by the drill in this process, so a
#: retried (or re-executed) trial succeeds — modelling transient faults.
_FAULTED_SEEDS: set = set()


def _maybe_inject_fault(seed: int) -> None:
    """Raise an :class:`InjectedFaultError` per the drill env variable."""
    spec = os.environ.get(FAULT_EVERY_ENV)
    if not spec:
        return
    every = int(spec)
    if every <= 0 or seed % every or seed in _FAULTED_SEEDS:
        return
    _FAULTED_SEEDS.add(seed)
    raise InjectedFaultError(
        f"fault drill: injected failure for trial seed {seed} "
        f"({FAULT_EVERY_ENV}={every})"
    )


def _execute_trial(
    trial: TrialFn,
    context: Optional[Dict[str, Any]],
    static_args: Tuple[Any, ...],
    index: int,
    seed: int,
    on_error: str,
    max_retries: int,
    start_attempt: int = 1,
    prior_failure: Optional[TrialFailure] = None,
) -> Tuple[Any, Optional[TrialFailure], int]:
    """Run one trial under the isolation policy.

    Returns ``(value, None, attempts)`` on success or ``(None,
    TrialFailure, attempts)`` once the policy's attempts are exhausted —
    the attempt count lets the parent emit ``trial_retry`` events
    uniformly across execution paths.  Retries rebuild the generator
    from the **same seed**, so a trial that recovers from a transient
    fault returns the bit-identical value of an unfaulted run.

    The batched executor pre-checks the fault drill per item; when an
    item already failed its first attempt there, it finishes here with
    ``start_attempt=2`` and the captured ``prior_failure``, keeping the
    retry/failure accounting identical to the scalar path.
    """
    telemetry = get_telemetry()
    attempts = 1 + (max_retries if on_error == "retry" else 0)
    failure: Optional[TrialFailure] = prior_failure
    for attempt in range(start_attempt, attempts + 1):
        if attempt > 1:
            telemetry.count("engine.retries")
        try:
            _maybe_inject_fault(seed)
            value = _call_trial(
                trial, context, static_args, np.random.default_rng(seed)
            )
            return value, None, attempt
        except ISOLATED_TRIAL_EXCEPTIONS as error:
            failure = TrialFailure(
                trial_index=index,
                seed=seed,
                exception_type=type(error).__name__,
                message=str(error),
                traceback=traceback_module.format_exc(),
                attempts=attempt,
            )
    telemetry.count("engine.trial_failures")
    telemetry.count("engine.trial_failures", type=failure.exception_type)
    return None, failure, failure.attempts


def _run_batch_items(
    trial: TrialFn,
    context: Optional[Dict[str, Any]],
    static_args: Tuple[Any, ...],
    items: Sequence[Tuple[int, int]],
    on_error: str,
    max_retries: int,
) -> List[Tuple[int, Any, Optional[TrialFailure], int]]:
    """Execute one chunk of items through a batched trial function.

    The chunk's healthy items run as **one** batch call receiving a list
    of generators rebuilt from each item's own stream seed, in item
    order — so each row sees exactly the generator the scalar path would
    hand it.  Items the fault drill pre-fails (and every item, should
    the batch call itself raise) degrade to the scalar executor, whose
    single-row batch calls reproduce batch rows bit-for-bit; retry and
    failure accounting therefore matches the scalar path exactly.
    """
    telemetry = get_telemetry()
    results: List[Optional[Tuple[int, Any, Optional[TrialFailure], int]]] = (
        [None] * len(items)
    )
    clean: List[Tuple[int, int, int]] = []
    prefailed: List[Tuple[int, int, int, TrialFailure]] = []
    for position, (index, seed) in enumerate(items):
        try:
            _maybe_inject_fault(seed)
        except InjectedFaultError as error:
            prefailed.append(
                (
                    position,
                    index,
                    seed,
                    TrialFailure(
                        trial_index=index,
                        seed=seed,
                        exception_type=type(error).__name__,
                        message=str(error),
                        traceback=traceback_module.format_exc(),
                        attempts=1,
                    ),
                )
            )
        else:
            clean.append((position, index, seed))
    if clean:
        rngs = [np.random.default_rng(seed) for _, _, seed in clean]
        rows: Optional[Sequence[Any]] = None
        try:
            rows = trial(context, static_args, rngs)
            if len(rows) != len(rngs):
                raise ConfigurationError(
                    f"batched trial {getattr(trial, '__name__', trial)!r} "
                    f"returned {len(rows)} rows for {len(rngs)} generators"
                )
        except ISOLATED_TRIAL_EXCEPTIONS:
            # The whole batch call failed; fall back to per-item scalar
            # execution so one poisoned realization cannot take down its
            # chunk siblings and the isolation policy applies per trial.
            telemetry.count("engine.batch_fallbacks")
            rows = None
        if rows is not None:
            telemetry.count("engine.batched_trials", len(clean))
            for (position, index, _seed), row in zip(clean, rows):
                results[position] = (index, row, None, 1)
        else:
            for position, index, seed in clean:
                value, failure, attempts = _execute_trial(
                    trial, context, static_args, index, seed,
                    on_error, max_retries,
                )
                results[position] = (index, value, failure, attempts)
    for position, index, seed, failure in prefailed:
        value, final_failure, attempts = _execute_trial(
            trial, context, static_args, index, seed, on_error, max_retries,
            start_attempt=2, prior_failure=failure,
        )
        results[position] = (index, value, final_failure, attempts)
    return [outcome for outcome in results if outcome is not None]


def _worker_init(context: Dict[str, Any], telemetry_enabled: bool) -> None:
    """Pool initializer: install shared state once per worker process."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    telemetry = get_telemetry()
    telemetry.reset()
    if telemetry_enabled:
        telemetry.enable()


def _run_chunk(
    trial: TrialFn,
    static_args: Tuple[Any, ...],
    items: Sequence[Tuple[int, int]],
    on_error: str,
    max_retries: int,
) -> Tuple[
    List[Tuple[int, Any, Optional[TrialFailure], int]], Optional[Dict[str, Any]]
]:
    """Execute one chunk of ``(trial_index, seed)`` items in a worker.

    Returns the indexed outcomes — each ``(index, value, failure,
    attempts)``, with exceptions captured as :class:`TrialFailure`
    records instead of propagating (a raising trial must not abort the
    chunk's siblings) — plus this chunk's telemetry delta (the worker
    telemetry is reset per chunk so deltas never double count).  No
    events are emitted here: the parent emits them as chunks complete.
    """
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.reset()
        telemetry.enable()
    if _is_batch_trial(trial):
        results = _run_batch_items(
            trial, _WORKER_CONTEXT, static_args, items, on_error, max_retries
        )
    else:
        results = []
        for index, seed in items:
            value, failure, attempts = _execute_trial(
                trial, _WORKER_CONTEXT, static_args, index, seed,
                on_error, max_retries,
            )
            results.append((index, value, failure, attempts))
    state = telemetry.dump_state() if telemetry.enabled else None
    return results, state


def _chunked(
    items: Sequence[Tuple[int, int]], chunk_size: int
) -> List[List[Tuple[int, int]]]:
    """Split indexed items into contiguous chunks of ``chunk_size``."""
    return [
        list(items[start:start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


class EngineSession:
    """One experiment's execution scope: a context plus (maybe) a pool.

    Created by :meth:`MonteCarloEngine.session`; usable as a context
    manager.  The pool (when parallel) is created lazily on the first
    :meth:`run` and reused across every sweep point of the experiment,
    so workers deserialize the prepared waveforms exactly once.

    Attributes:
        failures: every :class:`TrialFailure` observed in this session,
            in trial order per run — populated under ``on_error="skip"``
            and (before the raise) for the other policies.
        pool_rebuilds: worker-pool rebuilds performed after a pool
            crash (also counted on ``engine.pool_rebuilds``).
    """

    def __init__(self, engine: "MonteCarloEngine", context: Dict[str, Any]):
        self._engine = engine
        self._context = context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_failed = False
        self.failures: List[TrialFailure] = []
        self.pool_rebuilds = 0

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut down the worker pool, if one was started.

        Queued-but-unstarted chunks are cancelled so an exception or
        Ctrl-C mid-sweep exits promptly instead of draining the queue.
        """
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    # -- execution ----------------------------------------------------

    def run(
        self,
        trial: TrialFn,
        count: int,
        rng: RngLike = None,
        static_args: Tuple[Any, ...] = (),
    ) -> List[Any]:
        """Run ``count`` independent trials; results in trial order.

        Args:
            trial: module-level ``trial(context, static_args, rng)``
                callable (must be picklable for parallel execution).
            count: number of trials; each receives its own RNG stream
                spawned from ``rng`` in trial order.
            rng: stream source for this sweep point.
            static_args: per-sweep-point parameters (e.g. the SNR)
                passed through to every trial unchanged.

        Raises:
            TrialExecutionError: a trial raised and the engine policy is
                ``"raise"``, or retries were exhausted under
                ``"retry"``.  Under ``"skip"`` failed trials yield
                ``None`` in their result slot and the records accumulate
                on :attr:`failures`.
        """
        if count < 0:
            raise ConfigurationError("trial count must be non-negative")
        return self._run_seeds(trial, spawn_seeds(rng, count), static_args)

    def run_until(
        self,
        trial: TrialFn,
        rng: RngLike = None,
        static_args: Tuple[Any, ...] = (),
    ) -> "IncrementalRun":
        """Open an incremental trial stream over one sweep point.

        The returned :class:`IncrementalRun` executes trials in
        caller-chosen increments (:meth:`IncrementalRun.extend`) while
        drawing every stream seed from the *same* parent generator a
        fixed-budget :meth:`run` would use — so after ``k`` total trials
        the accumulated results are bit-identical to ``run(trial, k,
        rng=<same seed>)``, for any increment sizes.  This is the
        substrate for adaptive, precision-targeted sampling
        (:mod:`repro.experiments.adaptive`): a caller can check a
        confidence interval after each increment and stop early without
        sacrificing reproducibility of the trials that did run.
        """
        return IncrementalRun(self, trial, rng, static_args)

    def _run_seeds(
        self,
        trial: TrialFn,
        seeds: Sequence[int],
        static_args: Tuple[Any, ...],
        first_index: int = 0,
    ) -> List[Any]:
        """Execute one batch of pre-drawn seeds; results in seed order.

        ``first_index`` offsets the trial indices carried by events and
        failure records so an incremental run's streams number their
        trials globally, exactly like the fixed-budget path numbers a
        single ``run``.
        """
        count = len(seeds)
        telemetry = get_telemetry()
        telemetry.count("engine.trials", count)
        items = [(first_index + i, seed) for i, seed in enumerate(seeds)]
        # Keyed by absolute trial index: the fixed-budget path uses a
        # list (first_index == 0) semantics-identically, and the
        # incremental path reuses every executor below unchanged.
        results: Dict[int, Any] = {index: None for index, _ in items}
        chunks = _chunked(items, self._engine.resolve_chunk_size(count))
        pool = self._acquire_pool()
        if pool is None:
            # Same chunk boundaries as the parallel path, so heartbeat
            # cadence (and the event-type sequence) matches it for a
            # fixed chunk size.
            for chunk in chunks:
                self._run_items_in_process(trial, static_args, chunk, results)
            return [results[index] for index, _ in items]
        failures: List[TrialFailure] = []
        lost = self._dispatch(pool, trial, static_args, chunks, results, failures)
        if lost:
            self._recover_lost_chunks(trial, static_args, lost, results, failures)
        self._settle_failures(failures)
        return [results[index] for index, _ in items]

    # -- failure handling ---------------------------------------------

    @staticmethod
    def _emit_trial_events(
        stream: Any,
        failure: Optional[TrialFailure],
        attempts: int,
        index: int,
    ) -> None:
        """Emit the per-trial retry/failure events for one outcome."""
        if not stream.enabled:
            return
        if attempts > 1:
            stream.trial_retry(index, attempts, recovered=failure is None)
        if failure is not None:
            stream.trial_failure(
                index, failure.seed, failure.exception_type, failure.message
            )

    def _settle_failures(self, failures: List[TrialFailure]) -> None:
        """Record captured failures; raise them unless the policy skips."""
        if not failures:
            return
        failures.sort(key=lambda failure: failure.trial_index)
        self.failures.extend(failures)
        if self._engine.on_error != "skip":
            raise TrialExecutionError(failures[0])

    def _run_items_in_process(
        self,
        trial: TrialFn,
        static_args: Tuple[Any, ...],
        items: Sequence[Tuple[int, int]],
        results: Dict[int, Any],
        failures: Optional[List[TrialFailure]] = None,
    ) -> None:
        """Sequential executor: same isolation policy, no pool.

        Used for ``workers=1``, the pool-creation fallback, and the
        re-execution of chunks lost to a pool crash, so every execution
        path produces identical results *and* identical failure
        accounting.  With ``failures=None`` a failure settles (and may
        raise) eagerly — there is no fleet to drain first; recovery
        passes the run's shared list to defer settling until every lost
        chunk was re-executed.  Emits the same per-trial events and the
        same end-of-chunk heartbeat the parallel collector emits.
        """
        engine = self._engine
        stream = get_event_stream()
        if _is_batch_trial(trial):
            outcomes = _run_batch_items(
                trial, self._context, static_args, items,
                engine.on_error, engine.max_retries,
            )
            chunk_failures: List[TrialFailure] = []
            for index, value, failure, attempts in outcomes:
                results[index] = value
                self._emit_trial_events(stream, failure, attempts, index)
                if failure is not None:
                    chunk_failures.append(failure)
            if outcomes:
                stream.heartbeat(len(outcomes))
            if chunk_failures:
                if failures is None:
                    self._settle_failures(chunk_failures)
                else:
                    failures.extend(chunk_failures)
            return
        completed = 0
        for index, seed in items:
            value, failure, attempts = _execute_trial(
                trial, self._context, static_args, index, seed,
                engine.on_error, engine.max_retries,
            )
            results[index] = value
            completed += 1
            self._emit_trial_events(stream, failure, attempts, index)
            if failure is not None:
                if failures is None:
                    if engine.on_error != "skip":
                        # Settling is about to raise; flush progress so
                        # the aborted run's stream records it.
                        stream.heartbeat(completed)
                    self._settle_failures([failure])
                else:
                    failures.append(failure)
        if completed:
            stream.heartbeat(completed)

    # -- pool management ----------------------------------------------

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        trial: TrialFn,
        static_args: Tuple[Any, ...],
        chunks: List[List[Tuple[int, int]]],
        results: Dict[int, Any],
        failures: List[TrialFailure],
    ) -> List[List[Tuple[int, int]]]:
        """Submit chunks and fold completed results in submission order.

        Returns the chunks whose results were lost to a pool crash
        (``BrokenProcessPool`` / timeout); chunks that completed before
        the crash are kept — that is the whole point.
        """
        engine = self._engine
        telemetry = get_telemetry()
        submitted = []
        for chunk in chunks:
            try:
                future = pool.submit(
                    _run_chunk, trial, static_args, chunk,
                    engine.on_error, engine.max_retries,
                )
            except POOL_CRASH_EXCEPTIONS:
                # A pool that died mid-loop rejects new work; treat the
                # rest of the batch as lost and let recovery rerun it.
                future = None
            submitted.append((future, chunk))
        lost = []
        stream = get_event_stream()
        # Collect in submission order so telemetry merges (histogram
        # reservoir fill) and event emission stay deterministic for a
        # fixed chunking.
        for future, chunk in submitted:
            if future is None:
                lost.append(chunk)
                continue
            try:
                indexed, state = future.result()
            except POOL_CRASH_EXCEPTIONS:
                lost.append(chunk)
                continue
            for index, value, failure, attempts in indexed:
                results[index] = value
                self._emit_trial_events(stream, failure, attempts, index)
                if failure is not None:
                    failures.append(failure)
            if state is not None:
                telemetry.merge_state(state)
            stream.heartbeat(len(indexed))
        return lost

    def _recover_lost_chunks(
        self,
        trial: TrialFn,
        static_args: Tuple[Any, ...],
        lost: List[List[Tuple[int, int]]],
        results: Dict[int, Any],
        failures: List[TrialFailure],
    ) -> None:
        """Re-execute chunks lost to a pool crash; completed ones stay.

        The pool is rebuilt once; if the rebuild fails or the rebuilt
        pool dies too, the remaining chunks run sequentially in the
        parent (and the session stops using pools altogether).
        """
        telemetry = get_telemetry()
        self.pool_rebuilds += 1
        telemetry.count("engine.pool_rebuilds")
        trials_lost = sum(len(chunk) for chunk in lost)
        telemetry.count("engine.trials_reexecuted", trials_lost)
        get_event_stream().pool_rebuild(trials_lost)
        rebuilt = self._rebuild_pool()
        if rebuilt is not None:
            lost = self._dispatch(
                rebuilt, trial, static_args, lost, results, failures
            )
            if lost:
                # The rebuilt pool died as well — stop trusting pools
                # for the rest of this session.
                self.close()
                self._pool_failed = True
                self._engine.used_fallback = True
        for chunk in lost:
            self._run_items_in_process(
                trial, static_args, chunk, results, failures
            )

    def _rebuild_pool(self) -> Optional[ProcessPoolExecutor]:
        """Replace a crashed pool; ``None`` when recreation fails too."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        return self._acquire_pool()

    def _acquire_pool(self) -> Optional[ProcessPoolExecutor]:
        """The session's pool, or ``None`` when running sequentially."""
        engine = self._engine
        if engine.workers <= 1 or self._pool_failed:
            return None
        if self._pool is None:
            telemetry = get_telemetry()
            host_cpus = os.cpu_count() or 1
            if engine.workers > host_cpus:
                warnings.warn(
                    f"MonteCarloEngine workers={engine.workers} exceeds "
                    f"the host's {host_cpus} CPU(s); expect no further "
                    f"speedup (pass workers='auto' to match the host)",
                    RuntimeWarning,
                )
                telemetry.count("engine.worker_oversubscription")
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=engine.workers,
                    initializer=_worker_init,
                    initargs=(self._context, telemetry.enabled),
                )
            except (OSError, RuntimeError, ImportError,
                    NotImplementedError) as error:
                # Restricted environments land here: no process spawning
                # (PermissionError/OSError), missing POSIX semaphores
                # (OSError/ImportError from _multiprocessing), or start
                # methods the platform refuses (RuntimeError /
                # NotImplementedError).  Degrade to sequential.
                self._pool_failed = True
                engine.used_fallback = True
                telemetry.count("engine.pool_fallbacks")
                telemetry.count(
                    "engine.pool_fallbacks", reason=type(error).__name__
                )
                get_event_stream().pool_fallback(type(error).__name__)
                return None
            telemetry.set_gauge("engine.workers", engine.workers)
        return self._pool


class IncrementalRun:
    """An open, extendable trial stream over one sweep point.

    Created by :meth:`EngineSession.run_until`.  Each :meth:`extend`
    draws its stream seeds from the same parent generator a single
    fixed-budget :meth:`EngineSession.run` call would use, in the same
    order — numpy's bounded-integer sampling is element-sequential, so
    ``spawn_seeds(g, a) + spawn_seeds(g, b)`` equals
    ``spawn_seeds(seed, a + b)`` for a generator ``g`` freshly built
    from ``seed``.  Consequently **any prefix of an incremental run is
    bit-identical to a fixed-budget run of that length at the same
    seed**, which is what lets adaptive sweeps stop early without
    forking the published numbers.

    Attributes:
        results: every trial result so far, in trial order.
    """

    def __init__(
        self,
        session: EngineSession,
        trial: TrialFn,
        rng: RngLike,
        static_args: Tuple[Any, ...],
    ):
        self._session = session
        self._trial = trial
        self._static_args = static_args
        self._base = ensure_rng(rng)
        self.results: List[Any] = []

    @property
    def trials(self) -> int:
        """Trials executed so far."""
        return len(self.results)

    def extend(self, count: int) -> List[Any]:
        """Run ``count`` more trials; returns just the new results.

        The new trials are numbered (for events and failure records)
        after the ones already executed, exactly as a fixed-budget run
        of the combined length would number them.
        """
        if count < 0:
            raise ConfigurationError("trial count must be non-negative")
        if count == 0:
            return []
        seeds = spawn_seeds(self._base, count)
        new_results = self._session._run_seeds(
            self._trial, seeds, self._static_args, first_index=self.trials
        )
        self.results.extend(new_results)
        return new_results


class MonteCarloEngine:
    """Policy object: workers, chunking, and failure handling.

    Attributes:
        workers: worker process count; ``None`` or ``1`` selects the
            in-process sequential executor (the default — experiments
            stay dependency- and fork-free unless asked); ``"auto"``
            resolves to the host CPU count.
        chunk_size: trials per dispatched chunk; ``None`` derives
            ``ceil(count / (workers * DEFAULT_CHUNKS_PER_WORKER))``.
        on_error: trial-failure policy — ``"raise"`` (default) turns
            the first failure into :class:`TrialExecutionError`,
            ``"retry"`` re-runs a failing trial up to ``max_retries``
            times from the same seed before raising, ``"skip"`` records
            the failure and leaves ``None`` in the result slot.
        max_retries: bounded re-executions per trial under ``"retry"``.
        used_fallback: set when a parallel run degraded to sequential
            because the process pool could not be created (or died and
            could not be rebuilt).
    """

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        chunk_size: Optional[int] = None,
        on_error: str = "raise",
        max_retries: int = 2,
    ):
        if workers == "auto":
            workers = os.cpu_count() or 1
        elif isinstance(workers, str):
            raise ConfigurationError(
                f"workers must be an int, None, or 'auto', not {workers!r}"
            )
        if workers is not None and workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if on_error not in ON_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_POLICIES}, not {on_error!r}"
            )
        if max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        self.workers = int(workers) if workers else 1
        self.chunk_size = chunk_size
        self.on_error = on_error
        self.max_retries = int(max_retries)
        self.used_fallback = False

    def resolve_chunk_size(self, count: int) -> int:
        """The chunk size used for a ``count``-trial run."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(
            1, math.ceil(count / (self.workers * DEFAULT_CHUNKS_PER_WORKER))
        )

    def session(self, context: Optional[Dict[str, Any]] = None) -> EngineSession:
        """Open an execution session sharing ``context`` with workers.

        ``context`` holds the per-experiment state every trial needs
        (prepared waveforms, receivers, detectors).  It is pickled into
        each worker exactly once — build it before opening the session
        and treat it as read-only inside trials.
        """
        return EngineSession(self, dict(context or {}))
