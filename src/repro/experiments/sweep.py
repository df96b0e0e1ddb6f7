"""The declarative sweep layer: every Monte Carlo driver is one spec.

All of the paper's Monte Carlo sweeps (Tables II/IV/V, Figs. 12-14)
share one shape: an axis of points, one or more independent trial
streams per point, a fixed or adaptive per-stream budget, and a
reduction from stream results to table rows.  Before this module, the
cross-cutting machinery — the parallel engine, checkpoint stores,
batched trials, adaptive precision targeting, and telemetry events —
was hand-threaded through each driver.  Now a driver declares a
:class:`SweepSpec` (axis -> :class:`PointSpec`/:class:`StreamSpec`
plan, context factory, row reduction) and :func:`run_sweep` owns ALL
of the wiring in exactly one place:

* seed-stream discipline: ``spawn_rngs`` slots are allocated by the
  plan so serial == parallel == the adaptive prefix at the same seed,
  and the context is built *after* the streams are spawned;
* one loop over checkpoint units — a point (``checkpoint_unit=
  "point"``, payload: its row) or a single stream (``"stream"``,
  payload: its values and stats) — with a resume fingerprint derived
  from the spec's ``defaults`` (seed, axes, budgets, adaptive
  settings, scenario);
* sampling: every stream runs through one :class:`AdaptiveSweep`.  A
  fixed run is an adaptive run whose stopping rule never fires and
  whose cap is the budget, so each stream spends its budget in one
  engine call; adaptive streams declare ``rate``/``mean`` metrics and
  stop early.  Reducers see one outcome type in both modes, and a unit
  is saved as soon as all its streams are final;
* telemetry: ``declare_trials`` ETA accounting, ``point_started`` /
  ``point_finished`` / ``point_converged`` events.

A spec's ``defaults`` are its whole config schema: :meth:`SweepSpec.run`
(each driver's public ``run``) takes them as keywords, the resume
fingerprint lists them, and scenario files (see ``docs/SCENARIOS.md``)
may override any of them — alongside channel profile
(AWGN/Rician/Rayleigh, path-loss exponent), receiver profile, and
detector settings — so new sweeps need configuration, not new driver
code.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.channel.awgn import AwgnChannel
from repro.channel.base import Channel, ChannelChain
from repro.channel.environment import DEFAULT_INDOOR_BUDGET, RealEnvironment
from repro.channel.fading import BlockFadingChannel
from repro.channel.offsets import FrequencyOffsetChannel, PhaseOffsetChannel
from repro.defense.detector import CumulantDetector
from repro.errors import ConfigurationError
from repro.experiments.adaptive import (
    DEFAULT_REL_PRECISION,
    AdaptiveConfig,
    AdaptivePointOutcome,
    AdaptivePointState,
    AdaptiveSweep,
    MeanEstimator,
    RateEstimator,
)
from repro.experiments.checkpoint import open_checkpoint_store
from repro.experiments.common import ExperimentResult
from repro.experiments.engine import EngineSession, MonteCarloEngine
from repro.telemetry.events import get_event_stream
from repro.utils.rng import RngLike, ensure_rng, spawn_rngs
from repro.utils.signal_ops import ReceiverBand
from repro.zigbee.receiver import ReceiverConfig, ZigBeeReceiver

TrialFn = Callable[..., Any]

#: Config keys injected by scenarios on top of a spec's own defaults.
SCENARIO_CONFIG_KEYS = ("channel", "receiver_profile", "detector_overrides")

#: Channel profiles a scenario may request.
CHANNEL_PROFILES = ("awgn", "none", "rician", "rayleigh")

#: ``channel`` keys valid for SNR-axis specs (stacked channel factory).
SNR_CHANNEL_KEYS = frozenset(
    {"profile", "k_factor_db", "max_cfo_hz", "random_phase"}
)

#: ``channel`` keys valid for distance-axis specs (RealEnvironment).
ENVIRONMENT_CHANNEL_KEYS = SNR_CHANNEL_KEYS | {"path_loss_exponent"}

#: :meth:`SweepSpec.run` keywords passed straight to :func:`run_sweep`;
#: every other keyword is a config override.
RUN_OPTIONS = (
    "rng", "workers", "chunk_size", "checkpoint_dir", "resume", "adaptive",
    "rel_precision", "max_trials",
)

#: Detector kwargs a scenario may override.
DETECTOR_OVERRIDE_KEYS = frozenset(
    {"threshold", "use_abs_c40", "noise_variance"}
)


def _identity(value: Any) -> Any:
    """Default ``extract``: the trial result is the observation."""
    return value


# ---------------------------------------------------------------------------
# The declarative data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSpec:
    """One independent trial stream inside a sweep point.

    Attributes:
        key: checkpoint/event key (unique across the whole plan).
        rng_slot: index into the run's ``spawn_rngs`` allocation — slots
            are assigned by the plan, not discovered at run time, so a
            stream keeps its noise draws even when a sibling stream is
            disabled (e.g. Table II without the authentic baseline).
        budget: fixed trial count, and the adaptive base budget.
        trial: the stream's engine trial — ``@batch_trial`` functions
            take ``(context, static_args, rngs)`` and return one row per
            RNG, plain ones ``(context, static_args, rng)`` and one row.
        static_args: per-point parameters passed to every trial.
        kind: adaptive estimator — ``"rate"`` (Wilson) or ``"mean"``
            (Welford).
        extract: maps one raw trial result to the estimator observation
            (rate: truthy/falsy; mean: float or ``None`` to skip).
    """

    key: str
    rng_slot: int
    budget: int
    trial: TrialFn
    static_args: Tuple[Any, ...] = ()
    kind: str = "mean"
    extract: Callable[[Any], Any] = _identity

    def resolve_trial(self, batch: bool) -> TrialFn:
        """The stream's trial; the runner's one accessor for it.

        ``batch`` is unused.  It stays because tracing wrappers patch
        this method as ``resolve_trial(spec, batch)`` (see
        ``sweepbench/tracer.py``) to count every trial dispatch.
        """
        return self.trial


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: the streams that feed one row (or row group)."""

    key: str
    streams: Tuple[StreamSpec, ...]
    started_trials: int = 0
    meta: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SweepPlan:
    """The fully-resolved axis: points plus the RNG slot allocation."""

    points: Tuple[PointSpec, ...]
    rng_slots: int


@dataclass
class PointReduction:
    """Everything a point-unit reducer needs to build one row.

    ``adaptive`` only chooses the adaptive-only columns; the outcomes
    have one shape in both modes.
    """

    config: Mapping[str, Any]
    point: PointSpec
    adaptive: bool
    #: the engine context (prepared links, receivers, environment).
    context: Mapping[str, Any] = field(default_factory=dict)
    #: final outcomes (raw results, estimate, interval) per stream key.
    outcomes: Dict[str, AdaptivePointOutcome] = field(default_factory=dict)


@dataclass
class SweepReduction:
    """Everything a stream-unit reducer needs to build all rows.

    ``payloads`` maps every stream key to a JSON-friendly dict, in both
    modes: ``"values"`` (the extracted non-``None`` observations, in
    trial order) plus the final stats (``trials_used``/``converged``/
    ``capped``/``estimate``/``ci_low``/``ci_high``, NaN encoded as
    ``None``).
    """

    config: Mapping[str, Any]
    plan: SweepPlan
    adaptive: bool
    payloads: Dict[str, Dict[str, Any]]
    result: ExperimentResult


@dataclass(frozen=True)
class ScenarioSupport:
    """Which scenario channel/receiver overrides a spec accepts.

    The overridable axes are the spec's ``defaults`` keys, and detector
    overrides apply exactly when the spec has a ``detector`` hook.
    """

    channel: Optional[str] = None  # "snr" | "environment" | None
    receiver: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """One declarative Monte Carlo sweep.

    Attributes:
        experiment_id: paper artifact id (checkpoint + event namespace).
        title: :class:`ExperimentResult` title.
        defaults: the experiment's own config defaults; unknown config
            keys are rejected, so specs double as config schemas.  The
            resume fingerprint and the scenario axes derive from them.
        plan: config -> :class:`SweepPlan` (pure; draws no randomness).
        context: ``(config, base_rng)`` -> engine context dict.  Called
            *after* the plan's RNG slots are spawned from ``base_rng``,
            so anything the context draws (e.g. the emulation's filler
            subcarriers) never perturbs the per-trial noise streams.
        columns: ``(config, adaptive)`` -> result columns.
        checkpoint_unit: ``"point"`` (one payload per point: the row)
            or ``"stream"`` (one payload per stream: its values and
            stats).
        reduce_point: point-unit reducer -> row dict.
        build_rows: stream-unit reducer (fills ``reduction.result``).
        detector: optional defense-screening hook; its return value is
            installed as ``context["detector"]`` after the context is
            built.
        notes: config -> result notes (threshold calibrations etc. that
            depend on run output go through ``build_rows`` instead).
        scenario: which scenario channel/receiver overrides apply.
    """

    experiment_id: str
    title: str
    defaults: Mapping[str, Any]
    plan: Callable[[Mapping[str, Any]], SweepPlan]
    context: Callable[[Mapping[str, Any], np.random.Generator], Dict[str, Any]]
    columns: Callable[[Mapping[str, Any], bool], List[str]]
    checkpoint_unit: str = "point"
    reduce_point: Optional[Callable[[PointReduction], Dict[str, Any]]] = None
    build_rows: Optional[Callable[[SweepReduction], None]] = None
    detector: Optional[Callable[[Mapping[str, Any]], Optional[Any]]] = None
    notes: Optional[Callable[[Mapping[str, Any]], List[str]]] = None
    scenario: ScenarioSupport = ScenarioSupport()

    def resolve_config(
        self, overrides: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Defaults merged with overrides; unknown keys rejected.

        An override of a tuple default (an axis grid given as a list, a
        generator, a JSON array) is made a tuple.
        """
        config: Dict[str, Any] = dict(self.defaults)
        for key in SCENARIO_CONFIG_KEYS:
            config.setdefault(key, None)
        overrides = overrides or {}
        unknown = set(overrides) - set(config)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for {self.experiment_id!r}: "
                f"{sorted(unknown)}; valid keys: {sorted(self.defaults)}"
            )
        for key, value in overrides.items():
            if isinstance(self.defaults.get(key), tuple):
                try:
                    value = tuple(value)
                except TypeError:
                    raise ConfigurationError(
                        f"{self.experiment_id!r} config key {key!r} takes "
                        f"a sequence, got {value!r}"
                    ) from None
            config[key] = value
        return config

    def run(self, **kwargs: Any) -> ExperimentResult:
        """Run the sweep: each driver module's public ``run``.

        Keywords named in :data:`RUN_OPTIONS` go to :func:`run_sweep`;
        every other keyword overrides a ``defaults`` key (unknown keys
        raise :class:`ConfigurationError`).  Parallel and resumed runs
        stay bit-identical to serial at the same seed, and ``adaptive``
        stops each stream at its precision target, adding
        ``trials_used`` (and, for rate streams, the CI bounds) to rows.
        """
        options = {key: kwargs.pop(key) for key in RUN_OPTIONS if key in kwargs}
        return run_sweep(self, overrides=kwargs, **options)


# ---------------------------------------------------------------------------
# Scenario resolution (channel / receiver / detector overrides)
# ---------------------------------------------------------------------------


def _defense_receiver_config() -> ReceiverConfig:
    return ReceiverConfig(demodulation="matched_filter")


def _receiver_profiles() -> Dict[str, Callable[[], ReceiverConfig]]:
    from repro.hardware.cc26x2 import cc26x2_receiver_config
    from repro.hardware.usrp import (
        gnuradio_simulation_receiver_config,
        usrp_receiver_config,
    )

    return {
        "gnuradio": gnuradio_simulation_receiver_config,
        "usrp": usrp_receiver_config,
        "cc26x2": cc26x2_receiver_config,
        "defense": _defense_receiver_config,
    }


def resolve_receiver(
    config: Mapping[str, Any], default: str
) -> ZigBeeReceiver:
    """The spec's receiver, honoring a scenario ``receiver_profile``."""
    profiles = _receiver_profiles()
    profile = config.get("receiver_profile") or default
    if profile not in profiles:
        raise ConfigurationError(
            f"unknown receiver profile {profile!r}; valid profiles: "
            f"{sorted(profiles)}"
        )
    return ZigBeeReceiver(profiles[profile]())


def untracked_if_quadrature(receiver: ZigBeeReceiver) -> ZigBeeReceiver:
    """The receiver without matched-filter phase tracking, if unread.

    A receiver that decides on quadrature chips still demodulates the
    matched-filter chips, and their phase loop is a per-pair Python
    recursion.  For a sweep that reads only decisions, PSDUs, Hamming
    distances and quadrature chips, the loop's output is never read, so
    such a receiver comes back with ``phase_tracking=False`` and the
    same rows; any other receiver comes back unchanged.
    """
    if receiver.config.demodulation != "quadrature":
        return receiver
    return ZigBeeReceiver(replace(receiver.config, phase_tracking=False))


def resolve_detector(
    config: Mapping[str, Any], **defaults: Any
) -> CumulantDetector:
    """The spec's detector, honoring scenario ``detector_overrides``."""
    overrides = config.get("detector_overrides") or {}
    unknown = set(overrides) - DETECTOR_OVERRIDE_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown detector overrides: {sorted(unknown)}; valid keys: "
            f"{sorted(DETECTOR_OVERRIDE_KEYS)}"
        )
    return CumulantDetector(**{**defaults, **overrides})


@dataclass(frozen=True)
class FadingChannelFactory:
    """Picklable per-trial channel builder for SNR-axis scenarios.

    Stacks (in order) block fading, random CFO, random phase, and AWGN
    at the point's SNR, drawing every stage from sub-streams of the
    trial's own RNG — so parallel/batched runs stay bit-identical to
    serial at the same seed.  The rule of
    :meth:`repro.channel.environment.RealEnvironment.channel_at`: the
    input is (a receiver's view of) the unit-power transmit frame, the
    noise is referenced to that unit power and drawn in ``band``.
    """

    profile: str = "awgn"
    k_factor_db: Optional[float] = 12.0
    max_cfo_hz: float = 0.0
    random_phase: bool = False

    def __call__(
        self,
        snr_db: Optional[float],
        rng: RngLike = None,
        band: Optional[ReceiverBand] = None,
    ) -> Channel:
        fading_rng, cfo_rng, phase_rng, noise_rng = spawn_rngs(rng, 4)
        stages: List[Channel] = []
        if self.profile == "rician":
            stages.append(
                BlockFadingChannel(k_factor_db=self.k_factor_db,
                                   rng=fading_rng)
            )
        elif self.profile == "rayleigh":
            stages.append(BlockFadingChannel(k_factor_db=None, rng=fading_rng))
        if self.max_cfo_hz > 0:
            stages.append(
                FrequencyOffsetChannel(max_offset_hz=self.max_cfo_hz,
                                       rng=cfo_rng)
            )
        if self.random_phase:
            stages.append(PhaseOffsetChannel(rng=phase_rng))
        if snr_db is not None:
            stages.append(AwgnChannel(
                snr_db=snr_db, rng=noise_rng, normalize=False,
                signal_power=1.0, band=band,
            ))
        return ChannelChain(stages)


def _validated_channel_spec(
    config: Mapping[str, Any], valid_keys: FrozenSet[str]
) -> Optional[Dict[str, Any]]:
    spec = config.get("channel")
    if spec is None:
        return None
    unknown = set(spec) - valid_keys
    if unknown:
        raise ConfigurationError(
            f"unknown channel keys: {sorted(unknown)}; valid keys: "
            f"{sorted(valid_keys)}"
        )
    profile = spec.get("profile", "awgn")
    if profile not in CHANNEL_PROFILES:
        raise ConfigurationError(
            f"unknown channel profile {profile!r}; valid profiles: "
            f"{list(CHANNEL_PROFILES)}"
        )
    return dict(spec)


def resolve_channel_factory(
    config: Mapping[str, Any],
) -> Optional[FadingChannelFactory]:
    """A channel factory for SNR-axis specs; ``None`` without a scenario.

    ``None`` keeps the AWGN path of ``transmit_once`` /
    ``transmit_batch``, which draws each row's noise straight from the
    row's own generator (Table II's committed rows depend on that).
    """
    spec = _validated_channel_spec(config, SNR_CHANNEL_KEYS)
    if spec is None:
        return None
    return FadingChannelFactory(
        profile=spec.get("profile", "awgn"),
        k_factor_db=spec.get("k_factor_db", 12.0),
        max_cfo_hz=float(spec.get("max_cfo_hz", 0.0)),
        random_phase=bool(spec.get("random_phase", False)),
    )


def resolve_environment(
    config: Mapping[str, Any], rng: RngLike = 0
) -> RealEnvironment:
    """The real-environment channel, honoring scenario overrides."""
    spec = _validated_channel_spec(config, ENVIRONMENT_CHANNEL_KEYS) or {}
    budget = DEFAULT_INDOOR_BUDGET
    if "path_loss_exponent" in spec:
        budget = replace(
            budget, path_loss_exponent=float(spec["path_loss_exponent"])
        )
    kwargs: Dict[str, Any] = {}
    profile = spec.get("profile")
    if profile is not None:
        kwargs["fading"] = (
            "none" if profile in ("awgn", "none") else profile
        )
    if "k_factor_db" in spec:
        kwargs["k_factor_db"] = spec["k_factor_db"]
    if "max_cfo_hz" in spec:
        kwargs["max_cfo_hz"] = float(spec["max_cfo_hz"])
    if "random_phase" in spec:
        kwargs["random_phase"] = bool(spec["random_phase"])
    return RealEnvironment(budget=budget, rng=rng, **kwargs)


def config_fingerprint(
    spec: SweepSpec, config: Mapping[str, Any]
) -> Dict[str, Any]:
    """The config part of the resume fingerprint: the ``defaults`` keys.

    A tuple-valued key (an axis grid) becomes a list of floats, so
    ``(7, 9)`` and ``(7.0, 9.0)`` name the same sweep; every other key
    is taken as is.
    """
    return {
        key: (
            [float(value) for value in config[key]]
            if isinstance(default, tuple) else config[key]
        )
        for key, default in spec.defaults.items()
    }


def scenario_fragment(config: Mapping[str, Any]) -> Dict[str, Any]:
    """The scenario part of the resume fingerprint (empty without one)."""
    return {
        key: config[key]
        for key in SCENARIO_CONFIG_KEYS
        if config.get(key) is not None
    }


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_SCENARIO_TOP_KEYS = frozenset(
    {"experiment", "description", "overrides", "channel", "receiver",
     "detector"}
)


def load_scenario(path: str) -> Dict[str, Any]:
    """Parse and shape-check one scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            scenario = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario file: {error}")
    except UnicodeDecodeError as error:
        raise ConfigurationError(f"scenario file {path} is not UTF-8: {error}")
    except (ValueError, RecursionError) as error:
        # JSONDecodeError, integers past the digit limit, deep nesting.
        raise ConfigurationError(f"malformed scenario JSON in {path}: {error}")
    if not isinstance(scenario, dict):
        raise ConfigurationError(
            f"scenario file {path} must hold a JSON object"
        )
    unknown = set(scenario) - _SCENARIO_TOP_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys: {sorted(unknown)}; valid keys: "
            f"{sorted(_SCENARIO_TOP_KEYS)}"
        )
    experiment = scenario.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ConfigurationError(
            "scenario file must name its 'experiment' (e.g. \"table2\")"
        )
    for key in ("overrides", "channel", "receiver", "detector"):
        value = scenario.get(key)
        if value is not None and not isinstance(value, dict):
            raise ConfigurationError(
                f"scenario {key!r} must be a JSON object"
            )
    return scenario


def apply_scenario(
    spec: SweepSpec, scenario: Mapping[str, Any]
) -> Dict[str, Any]:
    """Scenario file -> config overrides for :func:`run_sweep`.

    Validates every override group against what the spec supports, so
    a bad scenario fails before any trial runs.
    """
    support = spec.scenario
    overrides: Dict[str, Any] = {}
    axis_overrides = scenario.get("overrides") or {}
    unknown = set(axis_overrides) - set(spec.defaults)
    if unknown:
        raise ConfigurationError(
            f"scenario overrides {sorted(unknown)} are not supported by "
            f"{spec.experiment_id!r}; overridable: {sorted(spec.defaults)}"
        )
    overrides.update(axis_overrides)
    channel = scenario.get("channel")
    if channel is not None:
        if support.channel is None:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support channel overrides"
            )
        valid = (
            SNR_CHANNEL_KEYS if support.channel == "snr"
            else ENVIRONMENT_CHANNEL_KEYS
        )
        probe = dict(overrides)
        probe["channel"] = channel
        _validated_channel_spec(probe, valid)
        overrides["channel"] = dict(channel)
    receiver = scenario.get("receiver")
    if receiver is not None:
        if not support.receiver:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support receiver overrides"
            )
        unknown = set(receiver) - {"profile"}
        if unknown:
            raise ConfigurationError(
                f"unknown receiver keys: {sorted(unknown)}; valid: "
                f"['profile']"
            )
        profile = receiver.get("profile")
        if profile not in _receiver_profiles():
            raise ConfigurationError(
                f"unknown receiver profile {profile!r}; valid profiles: "
                f"{sorted(_receiver_profiles())}"
            )
        overrides["receiver_profile"] = profile
    detector = scenario.get("detector")
    if detector is not None:
        if spec.detector is None:
            raise ConfigurationError(
                f"{spec.experiment_id!r} does not support detector overrides"
            )
        unknown = set(detector) - DETECTOR_OVERRIDE_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown detector overrides: {sorted(unknown)}; valid "
                f"keys: {sorted(DETECTOR_OVERRIDE_KEYS)}"
            )
        overrides["detector_overrides"] = dict(detector)
    return overrides


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def standalone_session(context: Dict[str, Any]) -> EngineSession:
    """A serial engine session for one-off collections outside a sweep.

    :func:`repro.experiments.defense_common.collect_statistics` and
    similar helpers use this when no caller-supplied session exists;
    sweeps themselves always go through :func:`run_sweep`.
    """
    return MonteCarloEngine().session(context)


def _stream_payload(
    outcome: AdaptivePointOutcome, extract: Callable[[Any], Any]
) -> Dict[str, Any]:
    """One final stream as a JSON-friendly checkpoint payload."""
    values = (extract(result) for result in outcome.results)
    return {
        "values": [value for value in values if value is not None],
        **{
            name: (
                None
                if isinstance(value, float) and math.isnan(value)
                else value
            )
            for name, value in outcome.summary().items()
        },
    }


def _make_estimator(stream_spec: StreamSpec) -> Any:
    if stream_spec.kind == "rate":
        return RateEstimator()
    if stream_spec.kind == "mean":
        return MeanEstimator()
    raise ConfigurationError(
        f"unknown stream kind {stream_spec.kind!r} for "
        f"{stream_spec.key!r}; expected 'rate' or 'mean'"
    )


def _integer_seed(rng: RngLike) -> Optional[int]:
    """The integer seed ``rng`` stands for; ``None`` for anything else."""
    try:
        return operator.index(rng)
    except TypeError:
        return None


#: The reducer each checkpoint unit needs.
_UNIT_REDUCERS = {"point": "reduce_point", "stream": "build_rows"}


def run_sweep(
    spec: SweepSpec,
    overrides: Optional[Mapping[str, Any]] = None,
    rng: RngLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    adaptive: bool = False,
    rel_precision: float = DEFAULT_REL_PRECISION,
    max_trials: Optional[int] = None,
) -> ExperimentResult:
    """Run one declarative sweep: the single owner of all engine wiring.

    Args:
        spec: the sweep declaration.
        overrides: config overrides on top of ``spec.defaults``
            (axis grids, counts, scenario channel/receiver/detector).
        rng: randomness; an integer seed pins the whole run.
        workers: Monte Carlo engine worker processes (default: serial).
        chunk_size: trials per engine dispatch (default: derived).
        checkpoint_dir: persist each completed unit atomically.
        resume: serve completed units from ``checkpoint_dir`` (requires
            an integer seed and a matching fingerprint: same seed,
            ``defaults`` keys, adaptive settings, scenario).
        adaptive: stop each stream once its declared estimator reaches
            the target relative CI half-width, reallocating saved
            trials to unconverged streams.
        rel_precision: adaptive target relative CI half-width.
        max_trials: adaptive hard per-stream cap (default 4x budget).
    """
    config = spec.resolve_config(overrides)
    reducer = _UNIT_REDUCERS.get(spec.checkpoint_unit)
    if reducer is None:
        raise ConfigurationError(
            f"unknown checkpoint unit {spec.checkpoint_unit!r}; expected "
            f"'point' or 'stream'"
        )
    if getattr(spec, reducer) is None:
        raise ConfigurationError(
            f"{spec.experiment_id!r} declares checkpoint_unit="
            f"{spec.checkpoint_unit!r} but no {reducer}"
        )
    plan = spec.plan(config)
    for point in plan.points:
        for stream in point.streams:
            if stream.budget < 1:
                raise ConfigurationError(
                    f"{spec.experiment_id!r} stream {stream.key!r} has a "
                    f"budget of {stream.budget} trials; it must be >= 1"
                )
    seed = _integer_seed(rng)
    if resume and seed is None:
        raise ConfigurationError(
            "resume needs an integer seed: checkpoints are keyed by the "
            "seed, so a resume without one could splice another run's points"
        )
    adaptive_config = (
        AdaptiveConfig(rel_precision=rel_precision, max_trials=max_trials)
        if adaptive else None
    )
    engine = MonteCarloEngine(workers=workers, chunk_size=chunk_size)
    fingerprint: Dict[str, Any] = {"seed": seed}
    fingerprint.update(config_fingerprint(spec, config))
    scenario = scenario_fragment(config)
    if scenario:
        fingerprint["scenario"] = scenario
    if adaptive_config is not None:
        # Either setting changes which trials run, so it splits the
        # checkpoint namespace: a resume never splices two rules' points.
        fingerprint["adaptive"] = asdict(adaptive_config)
    store = open_checkpoint_store(
        checkpoint_dir, spec.experiment_id,
        fingerprint=fingerprint, resume=resume,
    )
    base = ensure_rng(rng)
    rngs = spawn_rngs(base, plan.rng_slots)
    # The context draws (if at all) only after every per-trial stream is
    # spawned, so a fixed seed fixes the whole run.
    context = spec.context(config, base)
    if spec.detector is not None:
        context["detector"] = spec.detector(config)
    result = ExperimentResult(
        experiment_id=spec.experiment_id,
        title=spec.title,
        columns=spec.columns(config, adaptive),
    )
    if spec.checkpoint_unit == "point":
        units = list(plan.points)
    else:
        units = [
            PointSpec(key=s.key, streams=(s,), started_trials=s.budget)
            for point in plan.points for s in point.streams
        ]
    payloads = _run_units(
        spec, config, units, rngs, context, engine, store, adaptive_config
    )
    if spec.checkpoint_unit == "point":
        for point in plan.points:
            result.add_row(**payloads[point.key])
    else:
        spec.build_rows(SweepReduction(
            config=config, plan=plan, adaptive=adaptive_config is not None,
            payloads=payloads, result=result,
        ))
    if spec.notes is not None:
        result.notes.extend(spec.notes(config))
    return result


def _run_units(
    spec: SweepSpec,
    config: Mapping[str, Any],
    units: Sequence[PointSpec],
    rngs: Sequence[np.random.Generator],
    context: Dict[str, Any],
    engine: MonteCarloEngine,
    store: Any,
    adaptive_config: Optional[AdaptiveConfig],
) -> Dict[str, Any]:
    """Run every unit not served from ``store``; payloads by unit key.

    A unit is a point (its payload is its row) or a single stream (its
    payload is its extracted values plus stats).  Every stream runs
    through one :class:`AdaptiveSweep`; without an adaptive config its
    rule never fires and each stream spends exactly its budget.  A unit
    is reduced, checkpointed and announced as soon as all its streams
    are final — at once in fixed mode, on convergence or after
    ``settle`` in adaptive mode — so a killed sweep loses only the
    units still in flight.  Each checkpoint records the unit's payload
    and the trials it used, so a resume credits a finished unit's
    savings to the adaptive pool exactly as the first run did.
    """
    events = get_event_stream()
    events.declare_trials(sum(
        s.budget for unit in units
        if store is None or not store.completed(unit.key)
        for s in unit.streams
    ))
    payloads: Dict[str, Any] = {}
    states: Dict[str, List[AdaptivePointState]] = {}

    def finish(unit: PointSpec) -> None:
        outcomes = {
            s.key: state.outcome()
            for s, state in zip(unit.streams, states[unit.key])
        }
        if spec.checkpoint_unit == "point":
            payload = spec.reduce_point(PointReduction(
                config=config, point=unit,
                adaptive=adaptive_config is not None,
                context=context, outcomes=outcomes,
            ))
        else:
            (s,) = unit.streams
            payload = _stream_payload(outcomes[s.key], s.extract)
        if store is not None:
            store.save(unit.key, {
                "payload": payload,
                "trials_used": sum(state.trials for state in states[unit.key]),
            })
        payloads[unit.key] = payload
        events.point_finished(spec.experiment_id, unit.key,
                              rows_so_far=len(payloads))

    with engine.session(context) as session:
        sweep = AdaptiveSweep(
            session, adaptive_config, experiment=spec.experiment_id
        )
        for unit in units:
            cached = store.get(unit.key) if store is not None else None
            if cached is not None:
                payloads[unit.key] = cached["payload"]
                # The unit's unspent budget joins the reallocation pool
                # as it did in the interrupted run, so the stragglers
                # get the same grants they would have got.
                sweep.saved += (
                    sum(s.budget for s in unit.streams) - cached["trials_used"]
                )
                continue
            events.point_started(spec.experiment_id, unit.key,
                                 trials=unit.started_trials)
            states[unit.key] = [
                sweep.point(
                    s.resolve_trial(True), s.budget, _make_estimator(s),
                    rng=rngs[s.rng_slot], static_args=s.static_args,
                    extract=s.extract, key=s.key,
                )
                for s in unit.streams
            ]
            if all(state.final for state in states[unit.key]):
                finish(unit)
        sweep.settle()
        for unit in units:
            if unit.key not in payloads:
                finish(unit)
    return payloads
