"""Table V — averaged D_E^2 versus distance in the real environment.

The paper places the transmitter 1-6 m from the USRP receiver, averages
D_E^2 over 5000 waveform samples, and finds authentic ZigBee below 0.1
and emulated above 1 at every distance, leaving the threshold interval
[0.1, 1].  Our real-environment substitute (path loss -> SNR, Rician
fading, random CFO/phase) reproduces the distance-independent gap; the
detector uses the |C40| variant exactly as Sec. VI-C prescribes for
offset channels.

Each waveform sample is one engine trial with its own spawned RNG
stream (channel realization included), so ``workers`` parallelizes the
sweep with results bit-identical to the serial run at the same seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.errors import SynchronizationError
from repro.experiments.adaptive import DEFAULT_REL_PRECISION
from repro.experiments.common import (
    ExperimentResult,
    prepare_authentic,
    prepare_emulated,
)
from repro.experiments.defense_common import (
    chip_noise_variance_for,
    extract_chips,
    mean_or_nan,
)
from repro.experiments.sweep import (
    PointReduction,
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepSpec,
    resolve_detector,
    resolve_environment,
    resolve_receiver,
    run_sweep,
)
from repro.utils.rng import RngLike

PAPER_TABLE5 = {
    1: (0.0004, 1.1426),
    2: (0.0007, 1.8706),
    3: (0.0011, 1.4818),
    4: (0.0103, 1.3215),
    5: (0.0003, 2.0024),
    6: (0.0007, 1.2152),
}


def _distance_trial(
    context: Dict[str, Any], args: Tuple[Any, ...], rng: np.random.Generator
) -> Optional[float]:
    """One real-environment reception: D_E^2, or None when undecodable."""
    link_key, distance, chip_source, noise_corrected = args
    receiver = context["receiver"]
    channel = context["env"].channel_at(distance, rng=rng)
    try:
        packet = receiver.receive(channel.apply(context[link_key].on_air))
    except SynchronizationError:
        return None
    if not packet.decoded:
        return None
    chips = extract_chips(packet, chip_source)
    if chips.size < 8:
        return None
    chip_noise = (
        chip_noise_variance_for(
            packet, chip_source, receiver.config.samples_per_chip
        )
        if noise_corrected
        else None
    )
    return context["detector"].statistic(
        chips, chip_noise_variance=chip_noise
    ).distance_squared


def _de2_value(value: Optional[float]) -> Optional[float]:
    """Adaptive-mean observation: the trial already returns D_E^2/None."""
    return value


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "waveforms_per_point": config["waveforms_per_point"],
        "distances_m": [float(d) for d in config["distances_m"]],
        "chip_source": config["chip_source"],
        "noise_corrected": config["noise_corrected"],
    }


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    distances = list(config["distances_m"])
    per_point = config["waveforms_per_point"]
    points = []
    for i, distance in enumerate(distances):
        key = f"d{distance:g}"
        streams = tuple(
            StreamSpec(
                key=f"{key}.{label}", rng_slot=2 * i + j, budget=per_point,
                trial=_distance_trial,
                static_args=(label, distance, config["chip_source"],
                             config["noise_corrected"]),
                kind="mean", extract=_de2_value,
            )
            for j, label in enumerate(("zigbee", "emulated"))
        )
        points.append(PointSpec(
            key=key, streams=streams, started_trials=2 * per_point,
            meta={"distance_m": distance},
        ))
    return SweepPlan(points=tuple(points), rng_slots=2 * len(distances))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    return {
        "zigbee": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
        "receiver": resolve_receiver(config, "defense"),
        "env": resolve_environment(config, rng=0),
    }


def _mean_budget(config: Mapping[str, Any]) -> LinkBudget:
    # Reported SNR column uses the shadowing-free budget mean; per-trial
    # channels still draw shadowing from their own streams.
    return replace(
        resolve_environment(config, rng=0).budget, shadowing_sigma_db=0.0
    )


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = [
        "distance_m", "snr_db", "zigbee_de2", "emulated_de2",
        "paper_zigbee_de2", "paper_emulated_de2",
    ]
    if adaptive:
        columns.append("trials_used")
    return columns


def _reduce_point(reduction: PointReduction) -> Dict[str, Any]:
    distance = reduction.point.meta["distance_m"]
    key = reduction.point.key
    means: Dict[str, float] = {}
    trials_used = 0
    for label in ("zigbee", "emulated"):
        outcome = reduction.outcomes[f"{key}.{label}"]
        means[label] = mean_or_nan(
            [v for v in outcome.results if v is not None]
        )
        trials_used += outcome.trials_used
    paper = PAPER_TABLE5.get(int(distance), (float("nan"), float("nan")))
    row = {
        "distance_m": distance,
        "snr_db": float(_mean_budget(reduction.config).snr_db(distance)),
        "zigbee_de2": means["zigbee"],
        "emulated_de2": means["emulated"],
        "paper_zigbee_de2": paper[0],
        "paper_emulated_de2": paper[1],
    }
    if reduction.adaptive:
        row["trials_used"] = trials_used
    return row


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "detector uses |C40| (Sec. VI-C) because the real environment adds "
        "random frequency/phase offsets"
    ]


def _detector(config: Mapping[str, Any]) -> Any:
    return resolve_detector(config, use_abs_c40=True)


SPEC = SweepSpec(
    experiment_id="table5",
    title="Table V: averaged D_E^2 vs distance (real environment)",
    defaults={
        "distances_m": (1, 2, 3, 4, 5, 6),
        "waveforms_per_point": 30,
        "chip_source": "matched_filter",
        "noise_corrected": True,
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="point",
    reduce_point=_reduce_point,
    detector=_detector,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("distances_m", "waveforms_per_point", "chip_source",
              "noise_corrected"),
        channel="environment",
        receiver=True,
        detector=True,
    ),
)


def run(
    distances_m: Sequence[float] = (1, 2, 3, 4, 5, 6),
    waveforms_per_point: int = 30,
    chip_source: str = "matched_filter",
    noise_corrected: bool = True,
    rng: RngLike = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    on_error: str = "raise",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    adaptive: bool = False,
    rel_precision: float = DEFAULT_REL_PRECISION,
    max_trials: Optional[int] = None,
) -> ExperimentResult:
    """Average D_E^2 per class per distance under the real environment.

    At several metres the in-band SNR drops to single digits, so the
    defense relies on the paper's noise-variance subtraction (Sec. VI-B2)
    over the linear matched-filter chips; without it the statistic of
    *both* classes inflates with distance and the gap closes.

    ``checkpoint_dir``/``resume`` persist (and skip) completed distance
    rows; ``on_error`` selects the engine's trial-failure policy.
    ``adaptive`` stops each (distance, class) point once its mean-D_E^2
    Welford CI reaches ``rel_precision`` relative half-width (cap
    ``max_trials``, default 4x), adding ``trials_used`` to each row.
    """
    return run_sweep(
        SPEC,
        overrides={
            "distances_m": tuple(distances_m),
            "waveforms_per_point": waveforms_per_point,
            "chip_source": chip_source,
            "noise_corrected": noise_corrected,
        },
        rng=rng, workers=workers, chunk_size=chunk_size, on_error=on_error,
        checkpoint_dir=checkpoint_dir, resume=resume,
        adaptive=adaptive, rel_precision=rel_precision,
        max_trials=max_trials,
    )
