"""Fig. 13's embedded table — RSSI at the CC26x2R1 versus distance.

The paper's experimental-setting figure includes a table of received
signal strength indication readings over the 1-8 m range.  We reproduce
it two ways: analytically from the link budget, and empirically by
measuring the 8-symbol RSSI window on waveforms propagated through the
real-environment channel.  Each measured packet is one engine trial, so
``workers`` parallelizes the sweep deterministically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.experiments.adaptive import DEFAULT_REL_PRECISION
from repro.experiments.common import ExperimentResult, prepare_authentic
from repro.experiments.sweep import (
    PointReduction,
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepSpec,
    resolve_environment,
    run_sweep,
)
from repro.hardware.rssi import RssiEstimator
from repro.utils.rng import RngLike


def _rssi_trial(
    context: Dict[str, Any], args: Tuple[Any, ...], rng: np.random.Generator
) -> float:
    """One propagated packet's RSSI reading re-anchored at the budget mean."""
    distance, mean_rx_dbm = args
    channel = context["env"].channel_at(distance, rng=rng)
    received = channel.apply(context["prepared"].on_air)
    # Measure the fading-induced deviation around unit power over the
    # RSSI window inside the frame, then re-anchor.
    relative_db = context["estimator"].estimate(received, start=600)
    return mean_rx_dbm + relative_db


def _rssi_value(value: Optional[float]) -> Optional[float]:
    """Adaptive-mean observation: the trial already returns dBm/None."""
    return value


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "packets_per_point": config["packets_per_point"],
        "distances_m": [float(d) for d in config["distances_m"]],
    }


def _mean_budget(config: Mapping[str, Any]) -> LinkBudget:
    # Calibration and the analytic column use the shadowing-free budget
    # mean; per-trial channels still draw shadowing from their streams.
    return replace(
        resolve_environment(config, rng=0).budget, shadowing_sigma_db=0.0
    )


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    distances = list(config["distances_m"])
    per_point = config["packets_per_point"]
    budget = _mean_budget(config)
    points = []
    for i, distance in enumerate(distances):
        key = f"d{distance:g}"
        mean_rx_dbm = float(budget.received_power_dbm(distance))
        points.append(PointSpec(
            key=key,
            streams=(StreamSpec(
                key=key, rng_slot=i, budget=per_point, trial=_rssi_trial,
                static_args=(distance, mean_rx_dbm),
                kind="mean", extract=_rssi_value,
            ),),
            started_trials=per_point,
            meta={"distance_m": distance, "mean_rx_dbm": mean_rx_dbm},
        ))
    return SweepPlan(points=tuple(points), rng_slots=len(distances))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    # Calibrate the estimator so unit sample power corresponds to the
    # transmit power at the reference distance: the channel pipeline
    # normalizes power, so we measure *relative* fading and re-anchor at
    # the budget's mean RX power.
    return {
        "env": resolve_environment(config, rng=0),
        "prepared": prepare_authentic(),
        "estimator": RssiEstimator(reference_dbm=0.0),
    }


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = ["distance_m", "budget_rssi_dbm", "measured_rssi_dbm",
               "fading_spread_db"]
    if adaptive:
        columns.append("trials_used")
    return columns


def _reduce_point(reduction: PointReduction) -> Dict[str, Any]:
    meta = reduction.point.meta
    key = reduction.point.key
    estimator = RssiEstimator(reference_dbm=0.0)
    outcome = reduction.outcomes[key]
    readings = [r for r in outcome.results if r is not None]
    row = {
        "distance_m": meta["distance_m"],
        "budget_rssi_dbm": estimator.estimate_from_power_dbm(
            meta["mean_rx_dbm"]
        ),
        "measured_rssi_dbm": float(np.mean(readings)),
        "fading_spread_db": float(np.max(readings) - np.min(readings)),
    }
    if reduction.adaptive:
        row["trials_used"] = outcome.trials_used
    return row


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "measured = link-budget mean plus per-packet fading/noise deviation "
        "over the standard 8-symbol RSSI window"
    ]


SPEC = SweepSpec(
    experiment_id="fig13",
    title="Fig. 13 (table): RSSI vs distance at the ZigBee receiver",
    defaults={
        "distances_m": (1, 2, 3, 4, 5, 6, 7, 8),
        "packets_per_point": 5,
    },
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="point",
    reduce_point=_reduce_point,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("distances_m", "packets_per_point"),
        channel="environment",
    ),
)


def run(
    distances_m: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    packets_per_point: int = 5,
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
    """RSSI vs distance, analytic and measured.

    ``checkpoint_dir``/``resume`` persist (and skip) completed distance
    rows; ``on_error`` selects the engine's trial-failure policy.
    ``adaptive`` stops each distance point once the measured-RSSI
    Welford CI reaches ``rel_precision`` relative half-width (cap
    ``max_trials``), adding ``trials_used`` to each row.
    """
    return run_sweep(
        SPEC,
        overrides={
            "distances_m": tuple(distances_m),
            "packets_per_point": packets_per_point,
        },
        rng=rng, workers=workers, chunk_size=chunk_size, on_error=on_error,
        checkpoint_dir=checkpoint_dir, resume=resume,
        adaptive=adaptive, rel_precision=rel_precision,
        max_trials=max_trials,
    )
