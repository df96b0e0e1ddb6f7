"""Table II — emulation attack success rate under AWGN.

The paper transmits 1000 emulated waveforms at each SNR in 7-17 dB and
reports the fraction decoded by the ZigBee receiver (42.4 % at 7 dB
rising to 100 % at 17 dB).  The SNR axis matches ours under the
GNU-Radio-style simulated receiver (quadrature demodulation + naive
decimation); see ``hardware.gnuradio_simulation_receiver_config``.

Beyond the paper's table, ``screen_defense`` runs the cumulant detector
over every decoded emulated packet and reports the fraction flagged —
the "seek" half of the story on the same waveforms, which also exercises
the defense spans/counters when telemetry is enabled.
``include_authentic`` adds the authentic-waveform baseline column.

The sweep is declared as :data:`SPEC`, and ``run`` is ``SPEC.run``:
:func:`repro.experiments.sweep.run_sweep` owns all of the
engine/checkpoint/adaptive wiring.  Pass ``workers`` to parallelize
paper-scale sweeps (results are bit-identical to serial at the same
seed).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.experiments.common import (
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
    transmit_batch,
)
from repro.experiments.engine import batch_trial
from repro.experiments.sweep import (
    PointReduction,
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepSpec,
    resolve_channel_factory,
    resolve_detector,
    resolve_receiver,
    untracked_if_quadrature,
)

PAPER_SUCCESS_RATES = {7: 0.424, 9: 0.692, 11: 0.874, 13: 0.933, 15: 0.972, 17: 1.0}


@batch_trial
def _emulated_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Tuple[bool, bool, bool]]:
    """Noisy emulated transmissions: (delivered, screened, detected) per RNG."""
    (snr,) = args
    prepared = context["emulated"]
    packets = transmit_batch(
        prepared, context["receiver"], snr, rngs,
        channel_factory=context.get("channel_factory"),
    )
    detector = context["detector"]
    rows: List[List[bool]] = []
    eligible: List[Tuple[int, np.ndarray]] = []
    for index, packet in enumerate(packets):
        rows.append([packet_delivered(prepared, packet), False, False])
        if detector is not None and packet is not None and packet.decoded:
            chips = packet.diagnostics.psdu_quadrature_soft_chips
            if chips.size >= 64:
                eligible.append((index, chips))
    if eligible:
        results = detector.statistic_batch([chips for _, chips in eligible])
        for (index, _), result in zip(eligible, results):
            rows[index][1] = True
            rows[index][2] = bool(result.is_attack)
    return [tuple(row) for row in rows]


def _delivered_flag(row: Any) -> bool:
    """Adaptive-rate observation: the emulated frame was delivered."""
    return bool(row[0])


def _authentic_flag(row: Any) -> bool:
    """Adaptive-rate observation for the authentic delivery flag."""
    return bool(row)


@batch_trial
def _authentic_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[bool]:
    """Noisy authentic transmissions: one delivery flag per RNG."""
    (snr,) = args
    prepared = context["authentic"]
    packets = transmit_batch(
        prepared, context["receiver"], snr, rngs,
        channel_factory=context.get("channel_factory"),
    )
    return [packet_delivered(prepared, packet) for packet in packets]


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    snrs = list(config["snrs_db"])
    trials = config["trials"]
    points = []
    for i, snr in enumerate(snrs):
        key = f"snr{snr:g}"
        streams = [StreamSpec(
            key=key, rng_slot=2 * i, budget=trials,
            trial=_emulated_trial,
            static_args=(snr,), kind="rate", extract=_delivered_flag,
        )]
        # The authentic baseline keeps its own slot even when disabled,
        # so the emulated stream's noise draws never move.
        if config["include_authentic"]:
            streams.append(StreamSpec(
                key=f"{key}.authentic", rng_slot=2 * i + 1, budget=trials,
                trial=_authentic_trial,
                static_args=(snr,), kind="rate", extract=_authentic_flag,
            ))
        points.append(PointSpec(
            key=key, streams=tuple(streams), started_trials=trials,
            meta={"snr_db": snr},
        ))
    return SweepPlan(points=tuple(points), rng_slots=2 * len(snrs))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    # Seed the emulation (filler subcarriers) from the same base — drawn
    # after the noise streams — so a fixed seed fixes the whole run.
    # No output reads the matched-filter chips, so a quadrature receiver
    # skips their phase loop.
    return {
        "receiver": untracked_if_quadrature(
            resolve_receiver(config, "gnuradio")
        ),
        "emulated": prepare_emulated(rng=base),
        "authentic": prepare_authentic(),
        "channel_factory": resolve_channel_factory(config),
    }


def _detector(config: Mapping[str, Any]) -> Optional[Any]:
    return resolve_detector(config) if config["screen_defense"] else None


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = ["snr_db", "success_rate", "paper_success_rate"]
    if config["include_authentic"]:
        columns.append("authentic_success_rate")
    if config["screen_defense"]:
        columns.append("detected_rate")
    if adaptive:
        columns.extend(["trials_used", "ci_low", "ci_high"])
    return columns


def _reduce_point(reduction: PointReduction) -> Dict[str, Any]:
    config = reduction.config
    snr = reduction.point.meta["snr_db"]
    key = reduction.point.key
    outcome = reduction.outcomes[key]
    outcomes = [o for o in outcome.results if o is not None]
    row: Dict[str, Any] = {
        "snr_db": snr,
        "success_rate": outcome.estimate,
        "paper_success_rate": PAPER_SUCCESS_RATES.get(int(snr), float("nan")),
    }
    if config["screen_defense"]:
        screened = sum(was_screened for _, was_screened, _ in outcomes)
        detections = sum(detected for _, _, detected in outcomes)
        row["detected_rate"] = (
            detections / screened if screened else float("nan")
        )
    if config["include_authentic"]:
        row["authentic_success_rate"] = (
            reduction.outcomes[f"{key}.authentic"].estimate
        )
    if reduction.adaptive:
        row.update(
            trials_used=outcome.trials_used,
            ci_low=outcome.ci_low,
            ci_high=outcome.ci_high,
        )
    return row


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "receiver: GNU-Radio-style profile (quadrature demod, naive "
        "decimation) matching the paper's simulation SNR axis"
    ]


SPEC = SweepSpec(
    experiment_id="table2",
    title="Table II: emulation attack performance under AWGN",
    defaults={
        "snrs_db": (7, 9, 11, 13, 15, 17),
        "trials": 100,
        "include_authentic": True,
        "screen_defense": True,
    },
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="point",
    reduce_point=_reduce_point,
    detector=_detector,
    notes=_notes,
    scenario=ScenarioSupport(channel="snr", receiver=True),
)


run = SPEC.run
