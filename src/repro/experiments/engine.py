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
parent only**, as chunks complete: one ``heartbeat`` per chunk, a
``trial_failure`` record when a chunk raised, and ``pool_fallback``
when the session degrades to serial.  Given an explicit
``chunk_size``, the serial path executes in the same chunks as the
parallel path, so for that chunk size and seed the *sequence of event
types* is identical serial vs parallel.  Without one, a serial run
uses fewer, larger chunks (see :meth:`MonteCarloEngine.resolve_chunk_size`);
rows are bit-identical either way, because chunking never changes a
trial's stream and emission happens after results are already
collected.

Failures — a trial is a pure function of its context and its seed, so
a raise is a bug to report, never a row:

* **a raising trial fails the run** — the exception is captured as a
  :class:`TrialFailure` (first trial index, the dispatch's seeds, type,
  message, traceback text) and surfaces as
  :class:`~repro.errors.TrialExecutionError`, serially, in parallel and
  in adaptive increments alike.  Chunks are collected in submission
  order, so at a fixed ``chunk_size`` serial and parallel runs name the
  same dispatch.  A batched call that raises names its whole dispatch:
  every seed in it can be replayed;
* **a dead worker** (OOM kill, segfault) surfaces as
  ``BrokenProcessPool`` while collecting results.  The session keeps
  every chunk that completed, goes serial exactly as it does when a
  pool cannot be created (``engine.pool_fallbacks{reason=…}``), and
  re-runs only the lost chunks in the parent.

Usage::

    engine = MonteCarloEngine(workers=4, chunk_size=25)
    with engine.session({"prepared": link, "receiver": rx}) as session:
        outcomes = session.run(my_trial, trials, rng=point_rng,
                               static_args=(snr_db,))

where ``my_trial(context, static_args, rng)`` is a **module-level**
(picklable) function returning a picklable value.  ``workers=None`` or
``1`` runs the same code path in process; ``workers="auto"`` resolves
to the host CPU count; if the pool cannot be created (restricted
sandboxes, missing semaphores) or a worker dies, the engine falls back
to the sequential executor and records it on ``engine.used_fallback``.
"""

from __future__ import annotations

import math
import os
import traceback as traceback_module
import warnings
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.errors import ConfigurationError, TrialExecutionError
from repro.telemetry import get_telemetry
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike, ensure_rng, spawn_seeds

if TYPE_CHECKING:
    # A serial run never imports the process pool (nor multiprocessing):
    # ProcessPoolExecutor and BrokenProcessPool are imported only where
    # a pool is made or used.
    from concurrent.futures import ProcessPoolExecutor

#: A single Monte Carlo trial: ``trial(context, static_args, rng)``.
#: Batched trials (see :func:`batch_trial`) instead receive a list of
#: per-trial generators and return one result row per generator.
TrialFn = Callable[[Dict[str, Any], Tuple[Any, ...], np.random.Generator], Any]

#: Chunks target this many dispatches per worker when no explicit
#: ``chunk_size`` is given — large enough to amortize IPC, small enough
#: to load-balance uneven trial costs.  A serial run also targets it,
#: but never below :data:`SERIAL_MIN_CHUNK` rows.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Smallest chunk of a serial run with no explicit ``chunk_size``
#: (capped at the run's length).  Serial chunks balance nothing, and
#: every dispatch of a batched trial pays per-call costs (the O-QPSK
#: phase loop runs once per chip pair, whatever the batch), so a short
#: run such as an 8-trial adaptive increment goes out as one batch.
#: Runs of 128 trials or more keep ``count / DEFAULT_CHUNKS_PER_WORKER``
#: chunks, which bounds the rows in flight and so the peak memory.
SERIAL_MIN_CHUNK = 32

#: Exception types captured at the trial boundary.  Deliberately the
#: root of the ordinary-exception hierarchy: a trial may raise anything,
#: and the run must fail with a :class:`TrialFailure` that names the
#: trial, even when the exception object would not survive pickling
#: back from a worker.  ``KeyboardInterrupt`` / ``SystemExit`` are not
#: ``Exception`` subclasses and still propagate immediately.
ISOLATED_TRIAL_EXCEPTIONS = (Exception,)

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


@dataclass
class TrialFailure:
    """Structured record of one dispatch that raised instead of returning.

    Attributes:
        trial_index: the first trial of the raising dispatch, numbered
            as in its ``run`` call (or across an incremental run).
        seeds: the stream seed of every trial in the raising dispatch,
            in trial order — one for a scalar trial, the whole batch for
            a batched one — so each can be replayed.
        exception_type: class name of the exception (e.g. ``ValueError``).
        message: ``str(exception)``.
        traceback: the formatted traceback text, preserved across
            process boundaries where the live exception object may not
            unpickle.
    """

    trial_index: int
    seeds: Tuple[int, ...]
    exception_type: str
    message: str
    traceback: str


def _capture(items: Sequence[Tuple[int, int]], error: Exception) -> TrialFailure:
    """Record ``error``, raised by the dispatch of ``items``."""
    telemetry = get_telemetry()
    telemetry.count("engine.trial_failures")
    telemetry.count("engine.trial_failures", type=type(error).__name__)
    return TrialFailure(
        trial_index=items[0][0],
        seeds=tuple(seed for _, seed in items),
        exception_type=type(error).__name__,
        message=str(error),
        traceback=traceback_module.format_exc(),
    )


def _call_trial(
    trial: TrialFn,
    context: Optional[Dict[str, Any]],
    static_args: Tuple[Any, ...],
    items: Sequence[Tuple[int, int]],
) -> Tuple[List[Any], Optional[TrialFailure]]:
    """Execute one chunk of ``(trial_index, seed)`` items.

    Returns the values in item order and, when a call raised, the
    :class:`TrialFailure` that stops the run.  A batched trial gets
    **one** call with a generator rebuilt from each item's own stream
    seed, so each row sees exactly the generator it would get in any
    other chunking; a raise there fails the whole dispatch.  A scalar
    trial gets one call per item, and the chunk stops at the first raise.
    """
    if _is_batch_trial(trial):
        try:
            rows = trial(
                context, static_args,
                [np.random.default_rng(seed) for _, seed in items],
            )
            if len(rows) != len(items):
                raise ConfigurationError(
                    f"batched trial {getattr(trial, '__name__', trial)!r} "
                    f"returned {len(rows)} rows for {len(items)} generators"
                )
        except ISOLATED_TRIAL_EXCEPTIONS as error:
            return [], _capture(items, error)
        get_telemetry().count("engine.batched_trials", len(items))
        return list(rows), None
    values = []
    for position, (_, seed) in enumerate(items):
        try:
            values.append(
                trial(context, static_args, np.random.default_rng(seed))
            )
        except ISOLATED_TRIAL_EXCEPTIONS as error:
            return values, _capture(items[position:position + 1], error)
    return values, None


# Worker-process globals installed by the pool initializer.
_WORKER_CONTEXT: Optional[Dict[str, Any]] = None


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
) -> Tuple[List[Any], Optional[TrialFailure], Optional[Dict[str, Any]]]:
    """Execute one chunk of ``(trial_index, seed)`` items in a worker.

    Returns :func:`_call_trial`'s values and failure plus this chunk's
    telemetry delta (the worker telemetry is reset per chunk so deltas
    never double count).  No events are emitted here: the parent emits
    them as chunks complete.
    """
    telemetry = get_telemetry()
    if telemetry.enabled:
        telemetry.reset()
        telemetry.enable()
    values, failure = _call_trial(trial, _WORKER_CONTEXT, static_args, items)
    state = telemetry.dump_state() if telemetry.enabled else None
    return values, failure, state


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
    """

    def __init__(self, engine: "MonteCarloEngine", context: Dict[str, Any]):
        self._engine = engine
        self._context = context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_failed = False

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Shut down the worker pool, if one was started.

        Queued-but-unstarted chunks are cancelled so a failed trial or
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
            TrialExecutionError: a trial raised; its :class:`TrialFailure`
                is on the error's ``failure``.
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
        get_telemetry().count("engine.trials", count)
        items = [(first_index + i, seed) for i, seed in enumerate(seeds)]
        results: Dict[int, Any] = {}
        chunks = _chunked(items, self._engine.resolve_chunk_size(count))
        pool = self._acquire_pool()
        if pool is None:
            # For an explicit chunk size these are the parallel path's
            # chunk boundaries, so heartbeat cadence (and the event-type
            # sequence) matches it.
            for chunk in chunks:
                self._run_items_in_process(trial, static_args, chunk, results)
        else:
            self._dispatch(pool, trial, static_args, chunks, results)
        return [results[index] for index, _ in items]

    def _collect(
        self,
        items: Sequence[Tuple[int, int]],
        values: List[Any],
        failure: Optional[TrialFailure],
        results: Dict[int, Any],
    ) -> None:
        """Fold one executed chunk into ``results``; raise its failure.

        Emits the chunk's events: a heartbeat for the trials it
        completed, then a ``trial_failure`` record if it raised.
        """
        stream = get_event_stream()
        for (index, _), value in zip(items, values):
            results[index] = value
        if values:
            stream.heartbeat(len(values))
        if failure is not None:
            stream.trial_failure(
                failure.trial_index, failure.seeds,
                failure.exception_type, failure.message,
            )
            raise TrialExecutionError(failure)

    def _run_items_in_process(
        self,
        trial: TrialFn,
        static_args: Tuple[Any, ...],
        items: Sequence[Tuple[int, int]],
        results: Dict[int, Any],
    ) -> None:
        """Sequential executor: the parallel path's chunk, in process.

        Used for ``workers=1``, after a pool fallback, and for the
        chunks lost to a dead worker, so every execution path produces
        identical results, failures and events.
        """
        values, failure = _call_trial(trial, self._context, static_args, items)
        self._collect(items, values, failure, results)

    # -- pool management ----------------------------------------------

    def _dispatch(
        self,
        pool: ProcessPoolExecutor,
        trial: TrialFn,
        static_args: Tuple[Any, ...],
        chunks: List[List[Tuple[int, int]]],
        results: Dict[int, Any],
    ) -> None:
        """Submit chunks and fold completed results in submission order.

        A chunk lost to a dead worker (``BrokenProcessPool`` / timeout)
        re-runs in the parent, in its place in that order; chunks that
        completed before the crash are kept.  Any other exception raised
        by a future is a real bug and propagates.
        """
        from concurrent.futures.process import BrokenProcessPool

        pool_crashes = (BrokenProcessPool, FuturesTimeoutError)
        telemetry = get_telemetry()
        submitted = []
        for chunk in chunks:
            try:
                future = pool.submit(_run_chunk, trial, static_args, chunk)
            except pool_crashes as error:
                # A pool that died mid-loop rejects new work; the rest
                # of the batch runs in the parent.
                self._fall_back(error)
                future = None
            submitted.append((future, chunk))
        # Collect in submission order so telemetry merges (histogram
        # reservoir fill), event emission and the failure raised stay
        # deterministic for a fixed chunking.
        for future, chunk in submitted:
            outcome = None
            if future is not None:
                try:
                    outcome = future.result()
                except pool_crashes as error:
                    self._fall_back(error)
            if outcome is None:
                telemetry.count("engine.trials_reexecuted", len(chunk))
                self._run_items_in_process(trial, static_args, chunk, results)
                continue
            values, failure, state = outcome
            if state is not None:
                telemetry.merge_state(state)
            self._collect(chunk, values, failure, results)

    def _fall_back(self, error: BaseException) -> None:
        """Stop using pools for this session; count and announce it once."""
        if self._pool_failed:
            return
        self._pool_failed = True
        self._engine.used_fallback = True
        reason = type(error).__name__
        telemetry = get_telemetry()
        telemetry.count("engine.pool_fallbacks")
        telemetry.count("engine.pool_fallbacks", reason=reason)
        get_event_stream().pool_fallback(reason)

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
                from concurrent.futures import ProcessPoolExecutor

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
                self._fall_back(error)
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
    """Policy object: workers and chunking.

    Attributes:
        workers: worker process count; ``None`` or ``1`` selects the
            in-process sequential executor (the default — experiments
            stay dependency- and fork-free unless asked); ``"auto"``
            resolves to the host CPU count.
        chunk_size: trials per dispatched chunk; ``None`` derives it
            per run (see :meth:`resolve_chunk_size`).
        used_fallback: set when a parallel run degraded to sequential
            because the process pool could not be created or a worker
            died.
    """

    def __init__(
        self,
        workers: Union[int, str, None] = None,
        chunk_size: Optional[int] = None,
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
        self.workers = int(workers) if workers else 1
        self.chunk_size = chunk_size
        self.used_fallback = False

    def resolve_chunk_size(self, count: int) -> int:
        """The chunk size used for a ``count``-trial run.

        An explicit ``chunk_size`` wins.  Otherwise the run is split
        into ``workers * DEFAULT_CHUNKS_PER_WORKER`` chunks; a serial
        run's chunks are also at least ``min(count, SERIAL_MIN_CHUNK)``.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        chunk = max(
            1, math.ceil(count / (self.workers * DEFAULT_CHUNKS_PER_WORKER))
        )
        if self.workers == 1:
            chunk = max(chunk, min(count, SERIAL_MIN_CHUNK))
        return chunk

    def session(self, context: Optional[Dict[str, Any]] = None) -> EngineSession:
        """Open an execution session sharing ``context`` with workers.

        ``context`` holds the per-experiment state every trial needs
        (prepared waveforms, receivers, detectors).  It is pickled into
        each worker exactly once — build it before opening the session
        and treat it as read-only inside trials.
        """
        return EngineSession(self, dict(context or {}))
