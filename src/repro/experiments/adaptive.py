"""Adaptive, precision-targeted Monte Carlo trial allocation.

The paper's headline numbers (Tables II/IV/V, Figs. 12-14) are Monte
Carlo estimates — error rates and averaged D_E^2 distances — and a
fixed per-point trial budget spends the same effort on a 17 dB point
whose success rate pins to 1.0 after a couple dozen trials as on a
7 dB point sitting near the decision boundary.  This module replaces
the fixed budget with a **sequential, confidence-interval-driven
stopping rule** in the spirit of the sequential test already used for
multi-packet detection (:mod:`repro.defense.sequential`) and of the
explicit sample-size-versus-confidence tradeoffs in the channel-
training authentication literature (Xu et al., arXiv:1901.07897):

* **rates** (attack success, detection, packet error) converge by the
  Wilson score interval — well-behaved at p near 0 and 1 where the
  naive Wald interval collapses;
* **means** (D_E^2 distances, RSSI readings) converge by a Welford
  running mean/variance with a normal-approximation interval;
* a point stops once its 95 % interval half-width reaches a target
  *relative precision* (``--rel-precision``, default 10 %) or a hard
  per-point cap (``--max-trials``), and the trials it did not spend
  are **reallocated to points that did not converge** — typically the
  ones straddling the paper's Q = 0.5 threshold, exactly where extra
  precision matters.

Those two are the rule's only settings; the confidence level, the
trial floor and the increment size are the module constants below.

A fixed-budget sweep is the same loop with no rule
(``AdaptiveSweep(session, None)``): the rule never fires and every
point's cap is its budget, so each point runs its whole budget as one
:meth:`EngineSession.run` call.  Adaptive points run in increments
through :meth:`EngineSession.run_until`, whose seed streams are drawn
from the same parent generator — so the first ``n`` trials of an
adaptive run are bit-identical to a fixed ``n``-trial run at the same
seed, and the stopping decisions themselves are deterministic (they
depend only on trial outcomes, never on the wall clock).

Usage, as :func:`repro.experiments.sweep.run_sweep` wires it::

    sweep = AdaptiveSweep(session, AdaptiveConfig(rel_precision=0.1),
                          experiment="table2")
    state = sweep.point(trial_fn, budget, RateEstimator(), rng=point_rng,
                        static_args=(snr,), extract=lambda row: row[0],
                        key="snr17")
    ...                       # register every point (pass 1)
    sweep.settle()            # reallocate savings to stragglers (pass 2)
    outcome = state.outcome() # estimate, CI, trials_used, results

A point is *final* — its outcome readable — once it converged or hit
its cap, which can be before :meth:`AdaptiveSweep.settle`; every other
point is final once ``settle`` has run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.engine import EngineSession, IncrementalRun, TrialFn
from repro.telemetry import get_telemetry
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike

#: Default target relative half-width of a point's confidence interval.
DEFAULT_REL_PRECISION = 0.1

#: Two-sided 95 % standard-normal quantile shared by every interval.
#: The last digits are those of the bisection the sweeps have always
#: used, so adaptive stopping points stay where they were.
Z_95 = 1.9599639845401384

#: Trials a point must execute before its interval is trusted at all —
#: guards against a lucky first chunk stopping a point absurdly early.
MIN_TRIALS = 16

#: Smallest increment between interval checks; larger budgets step by
#: an eighth of the budget so the batched fast path still amortizes
#: its per-call overhead.
INCREMENT_TRIALS = 8

#: Default hard cap, as a multiple of the point's budget, on how far
#: reallocation may grow an unconverged point.
DEFAULT_MAX_TRIALS_FACTOR = 4


def increment(budget: int) -> int:
    """Trials per interval check for a point with budget ``budget``."""
    return min(max(INCREMENT_TRIALS, budget // 8), budget)


def wilson_interval(successes: int, trials: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the Wald interval it never collapses to zero width at
    ``successes in (0, trials)`` boundaries, so the stopping rule stays
    honest for the near-certain rates that dominate high-SNR points.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigurationError(
            f"invalid binomial counts: {successes}/{trials}"
        )
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z = Z_95
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denominator
    half = (z / denominator) * math.sqrt(
        phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)
    )
    # Clamp to [0, 1] and absorb roundoff so the interval always
    # brackets the point estimate (center +/- half can land a few ulp
    # inside phat at the 0/1 boundaries).
    return (
        min(max(0.0, center - half), phat),
        max(min(1.0, center + half), phat),
    )


class RateEstimator:
    """Sequential Wilson-interval tracker for a Bernoulli rate.

    ``extract`` outcomes are folded in as successes (truthy) or
    failures (falsy, including ``None`` rows from skipped trials);
    every trial is an observation.  Convergence compares the interval
    half-width against ``rel_precision * max(p, 1 - p)`` — relative to
    the *larger* side of the rate, so a 0.97 success rate and a 0.03
    error rate (the same physical point, reported either way) converge
    after the same number of trials.
    """

    kind = "rate"

    def __init__(self) -> None:
        self.successes = 0
        self.observations = 0

    def add(self, values: List[Any]) -> None:
        """Fold one chunk of extracted outcomes into the counts."""
        self.observations += len(values)
        self.successes += sum(1 for value in values if value)

    @property
    def estimate(self) -> float:
        """The point estimate ``successes / observations`` (NaN empty)."""
        if self.observations == 0:
            return float("nan")
        return self.successes / self.observations

    def interval(self) -> Tuple[float, float]:
        """The current Wilson confidence interval."""
        return wilson_interval(self.successes, self.observations)

    def half_width(self) -> float:
        """Half the current interval's width (inf while empty)."""
        if self.observations == 0:
            return float("inf")
        low, high = self.interval()
        return (high - low) / 2.0

    def converged(self, rel_precision: float) -> bool:
        """Whether the interval meets the target relative precision."""
        if self.observations == 0:
            return False
        p = self.estimate
        scale = max(p, 1.0 - p)
        return self.half_width() <= rel_precision * scale


class MeanEstimator:
    """Welford running mean/variance with a normal-approximation CI.

    Non-``None`` extracted values stream through Welford's single-pass
    update (numerically stable — no sum-of-squares cancellation);
    ``None`` rows (receptions that never reached the defense) are
    spent trials but not observations, matching how the fixed-budget
    drivers filter them.  Convergence compares the half-width
    ``z * s / sqrt(n)`` against ``rel_precision * |mean|``.
    """

    kind = "mean"

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, values: List[Any]) -> None:
        """Fold one chunk of extracted values (``None`` rows skipped)."""
        for value in values:
            if value is None:
                continue
            self.count += 1
            delta = float(value) - self.mean
            self.mean += delta / self.count
            self._m2 += delta * (float(value) - self.mean)

    @property
    def estimate(self) -> float:
        """The running mean (NaN while no observation arrived)."""
        if self.count == 0:
            return float("nan")
        return self.mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (inf until two observations)."""
        if self.count < 2:
            return float("inf")
        return self._m2 / (self.count - 1)

    def half_width(self) -> float:
        """Half-width of the normal-approximation interval."""
        if self.count < 2:
            return float("inf")
        return Z_95 * math.sqrt(self.variance / self.count)

    def interval(self) -> Tuple[float, float]:
        """The current confidence interval around the running mean."""
        if self.count == 0:
            return float("nan"), float("nan")
        half = self.half_width()
        return self.mean - half, self.mean + half

    def converged(self, rel_precision: float) -> bool:
        """Whether the interval meets the target relative precision."""
        if self.count < 2:
            return False
        scale = abs(self.mean)
        if scale == 0.0:
            return self.half_width() == 0.0
        return self.half_width() <= rel_precision * scale


@dataclass(frozen=True)
class AdaptiveConfig:
    """The stopping rule's two settings.

    Attributes:
        rel_precision: target relative half-width of each point's
            confidence interval (``--rel-precision``, default 10 %).
        max_trials: hard per-point cap reallocation may grow a point
            to (``--max-trials``); ``None`` derives
            ``DEFAULT_MAX_TRIALS_FACTOR * budget``.
    """

    rel_precision: float = DEFAULT_REL_PRECISION
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_precision < 1.0:
            raise ConfigurationError("rel_precision must be in (0, 1)")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigurationError("max_trials must be >= 1")

    def resolve_cap(self, budget: int) -> int:
        """The hard trial cap for a point with budget ``budget``."""
        if self.max_trials is not None:
            return max(self.max_trials, budget)
        return DEFAULT_MAX_TRIALS_FACTOR * max(budget, 1)


@dataclass
class AdaptivePointOutcome:
    """Everything a reducer needs to build a final point's row."""

    results: List[Any]
    trials_used: int
    converged: bool
    capped: bool
    estimate: float
    ci_low: float
    ci_high: float

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly stats for checkpoints and result rows."""
        return {
            "trials_used": self.trials_used,
            "converged": self.converged,
            "capped": self.capped,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }


@dataclass
class AdaptivePointState:
    """One sweep point: its results so far, estimator, and stop state.

    ``stream`` is the open incremental trial stream of an adaptive
    point; a fixed point runs in one call and has none.
    """

    key: str
    estimator: Any
    extract: Callable[[Any], Any]
    base: int
    cap: int
    stream: Optional[IncrementalRun] = None
    results: List[Any] = field(default_factory=list)
    converged: bool = False
    settled: bool = False

    @property
    def trials(self) -> int:
        """Trials executed so far."""
        return len(self.results)

    @property
    def capped(self) -> bool:
        """Whether the point ran to its cap without converging."""
        return not self.converged and self.trials >= self.cap

    @property
    def final(self) -> bool:
        """Whether no more trials can run: converged, capped, or settled."""
        return self.converged or self.trials >= self.cap or self.settled

    def observe(self, rows: List[Any]) -> None:
        """Fold freshly executed rows into the results and estimator."""
        self.results.extend(rows)
        self.estimator.add([self.extract(row) for row in rows])

    def outcome(self) -> AdaptivePointOutcome:
        """The final point's estimate, interval, and raw results."""
        if not self.final:
            raise ConfigurationError(
                f"adaptive point {self.key!r} read before it is final; "
                f"register every point, then AdaptiveSweep.settle()"
            )
        low, high = self.estimator.interval()
        return AdaptivePointOutcome(
            results=self.results,
            trials_used=self.trials,
            converged=self.converged,
            capped=self.capped,
            estimate=self.estimator.estimate,
            ci_low=float(low),
            ci_high=float(high),
        )


class AdaptiveSweep:
    """Budget-reallocating executor over one sweep's points.

    Two passes:

    1. :meth:`point` runs each registered point immediately, in
       increments, stopping at convergence or at the point's budget —
       never above it, so pass 1 can only *save* trials;
    2. :meth:`settle` grants the saved trials to the points that did
       not converge, increment by increment in registration order
       (deterministic round-robin), until each converges, hits its hard
       cap, or the pool runs dry.

    With ``config=None`` the sweep is fixed-budget: no rule fires, each
    point's cap is its budget, nothing is saved, and :meth:`settle`
    reports nothing.

    The savings accounting is exact: ``trials_executed`` never exceeds
    ``trials_base`` (the fixed-budget total of the registered points),
    and the difference is what the sweep's ``engine.trials_saved``
    counter reports.

    Args:
        session: an open :class:`EngineSession` the trials run on.
        config: the stopping rule, or ``None`` for a fixed budget.
        experiment: experiment id stamped on ``point_converged`` events.
    """

    def __init__(
        self,
        session: EngineSession,
        config: Optional[AdaptiveConfig],
        experiment: str = "sweep",
    ):
        self._session = session
        self._experiment = experiment
        self.config = config
        self.saved = 0
        self._points: List[AdaptivePointState] = []
        self._settled = False

    # -- accounting ----------------------------------------------------

    @property
    def trials_base(self) -> int:
        """Fixed-budget trial total of every registered point."""
        return sum(state.base for state in self._points)

    @property
    def trials_executed(self) -> int:
        """Trials actually executed across every registered point."""
        return sum(state.trials for state in self._points)

    @property
    def trials_saved(self) -> int:
        """Net trials the adaptive rule saved versus the fixed budget."""
        return self.trials_base - self.trials_executed

    # -- pass 1: per-point sequential estimation ----------------------

    def point(
        self,
        trial: TrialFn,
        budget: int,
        estimator: Any,
        rng: RngLike = None,
        static_args: Tuple[Any, ...] = (),
        extract: Callable[[Any], Any] = lambda row: row,
        key: str = "",
    ) -> AdaptivePointState:
        """Register and run one sweep point up to its budget.

        Args:
            trial: the engine trial function (scalar or batched).
            budget: the point's trial budget — all of it in fixed mode,
                the pass-1 ceiling in adaptive mode.
            estimator: a :class:`RateEstimator` or
                :class:`MeanEstimator`.
            rng: the point's stream source; the executed trials are a
                prefix of a fixed ``session.run`` on it.
            static_args: per-point parameters passed to every trial.
            extract: maps one raw trial result to the estimator's
                observation (rate: truthy/falsy; mean: float or
                ``None`` to skip).
            key: point label for events and error messages.
        """
        if self._settled:
            raise ConfigurationError(
                "AdaptiveSweep.settle() already ran; open a new sweep"
            )
        config = self.config
        if config is not None and budget < 1:
            raise ConfigurationError("adaptive point budget must be >= 1")
        state = AdaptivePointState(
            key=key, estimator=estimator, extract=extract, base=budget,
            cap=budget if config is None else config.resolve_cap(budget),
        )
        self._points.append(state)
        if config is None:
            state.observe(self._session.run(
                trial, budget, rng=rng, static_args=static_args
            ))
            return state
        state.stream = self._session.run_until(trial, rng, static_args)
        step = increment(budget)
        while state.trials < budget:
            state.observe(
                state.stream.extend(min(step, budget - state.trials))
            )
            if (
                state.trials >= min(MIN_TRIALS, budget)
                and state.estimator.converged(config.rel_precision)
            ):
                state.converged = True
                break
        self.saved += budget - state.trials
        return state

    # -- pass 2: reallocation ------------------------------------------

    def settle(self) -> None:
        """Spend the saved trials on unfinished points, then account.

        Grants go increment by increment in registration order so every
        pass is deterministic; a point leaves the rotation when it
        converges, reaches its hard cap, or the pool empties.
        Afterwards every point is final and, in adaptive mode, its
        stats land on the telemetry plane: one ``point_converged``
        event per point plus the sweep-level ``engine.trials_saved`` /
        ``engine.points_capped`` counters.
        """
        if self._settled:
            return
        self._settled = True
        pending = [state for state in self._points if not state.final]
        while pending and self.saved > 0:
            for state in list(pending):
                step = min(
                    increment(state.base), state.cap - state.trials,
                    self.saved,
                )
                state.observe(state.stream.extend(step))
                self.saved -= step
                if state.estimator.converged(self.config.rel_precision):
                    state.converged = True
                if state.final:
                    pending.remove(state)
                if self.saved <= 0:
                    break
        for state in self._points:
            state.settled = True
        if self.config is None:
            return
        stream = get_event_stream()
        for state in self._points:
            low, high = state.estimator.interval()
            stream.point_converged(
                self._experiment,
                state.key,
                trials_used=state.trials,
                trials_saved=state.base - state.trials,
                converged=state.converged,
                capped=state.capped,
                estimate=_json_float(state.estimator.estimate),
                ci_low=_json_float(low),
                ci_high=_json_float(high),
            )
        telemetry = get_telemetry()
        if self.trials_saved > 0:
            telemetry.count("engine.trials_saved", self.trials_saved)
        capped_points = sum(state.capped for state in self._points)
        if capped_points:
            telemetry.count("engine.points_capped", capped_points)


def _json_float(value: float) -> Optional[float]:
    """NaN/inf become ``None`` so event records stay strict JSON."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return value
