"""Fig. 14 — packet and symbol error rates versus distance, per receiver.

The paper sends the 00000-00099 corpus from the ZigBee transmitter and
the WiFi attacker at 1-8 m and measures error rates at a USRP receiver
(Fig. 14a — fails beyond ~6-7 m) and at the CC26x2R1 (Fig. 14b — still
below 0.1 at 8 m).  The qualitative claims to reproduce:

* error rates grow with distance;
* the emulated waveform's error rates exceed the authentic waveform's;
* packet error rate >= symbol error rate;
* the commodity receiver profile beats the USRP profile at range.

Each transmission is one engine trial with its own RNG stream, so the
(distance x receiver x waveform) grid parallelizes across ``workers``
with results bit-identical to the serial run at the same seed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.experiments.common import (
    packet_delivered,
    prepare_authentic,
    prepare_emulated,
)
from repro.experiments.engine import batch_trial
from repro.experiments.sweep import (
    PointReduction,
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepSpec,
    resolve_environment,
    untracked_if_quadrature,
)
from repro.hardware.cc26x2 import cc26x2_receiver_config
from repro.hardware.rssi import RssiEstimator
from repro.hardware.usrp import usrp_receiver_config
from repro.link.metrics import ErrorRateAccumulator
from repro.zigbee.receiver import ZigBeeReceiver


@batch_trial
def _link_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[Tuple[np.ndarray, bool, Optional[np.ndarray]]]]:
    """One propagated reception per RNG; ``None`` marks a sync loss.

    Each row's channel realization is applied, with that row's own
    spawned streams, at the receiver's rate to the frame the receiver
    reads (``PreparedLink.at_receiver``), and the noisy rows go through
    the receiver's batched chain.  A row is ``(decoded_symbols, delivered,
    hamming_distances)`` so the parent can replay the accumulator in
    trial order.
    """
    link_key, rx_name, distance, loss_db = args
    prepared = context[link_key]
    receiver = context["receivers"][rx_name]
    clean, band = prepared.at_receiver(receiver)
    stacked = np.empty((len(rngs), clean.samples.size), dtype=np.complex128)
    for row, rng in enumerate(rngs):
        channel = context["env"].channel_at(
            distance, extra_loss_db=loss_db, rng=rng, band=band
        )
        stacked[row] = channel.apply(clean).samples
    packets = receiver.receive_batch(stacked, clean.sample_rate_hz)
    rows: List[Optional[Tuple[np.ndarray, bool, Optional[np.ndarray]]]] = []
    for packet in packets:
        if packet is None:
            rows.append(None)
            continue
        rows.append((
            packet.diagnostics.psdu_symbols,
            packet_delivered(prepared, packet),
            packet.diagnostics.hamming_distances,
        ))
    return rows


def _packet_error_flag(row: Any) -> bool:
    """Adaptive-rate observation: packet errored (sync losses count)."""
    return bool(row is None or not row[1])


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    distances = list(config["distances_m"])
    trials = config["trials"]
    losses = {
        "usrp": usrp_receiver_config().implementation_loss_db,
        "cc26x2": cc26x2_receiver_config().implementation_loss_db,
    }
    cells = [
        (distance, rx_name, label)
        for distance in distances
        for rx_name in ("usrp", "cc26x2")
        for label in ("original", "emulated")
    ]
    points = []
    for index, (distance, rx_name, label) in enumerate(cells):
        key = f"d{distance:g}.{rx_name}.{label}"
        points.append(PointSpec(
            key=key,
            streams=(StreamSpec(
                key=key, rng_slot=index, budget=trials, trial=_link_trial,
                static_args=(label, rx_name, distance, losses[rx_name]),
                kind="rate", extract=_packet_error_flag,
            ),),
            started_trials=trials,
            meta={"distance_m": distance, "receiver": rx_name,
                  "waveform": label},
        ))
    return SweepPlan(points=tuple(points), rng_slots=len(cells))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    # Rows read decisions, PSDUs and Hamming distances only, so the
    # quadrature USRP receiver skips the unread matched-filter phase loop.
    return {
        "env": resolve_environment(config, rng=0),
        "receivers": {
            "usrp": untracked_if_quadrature(
                ZigBeeReceiver(usrp_receiver_config())
            ),
            "cc26x2": ZigBeeReceiver(cc26x2_receiver_config()),
        },
        "original": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
    }


def _mean_budget(config: Mapping[str, Any]) -> LinkBudget:
    # Reported SNR/RSSI columns use the shadowing-free budget mean; the
    # per-trial channels still draw shadowing from their own streams.
    return replace(
        resolve_environment(config, rng=0).budget, shadowing_sigma_db=0.0
    )


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = [
        "distance_m", "receiver", "waveform",
        "packet_error_rate", "symbol_error_rate", "snr_db", "rssi_dbm",
    ]
    if adaptive:
        columns.extend(["trials_used", "ci_low", "ci_high"])
    return columns


def _reduce_point(reduction: PointReduction) -> Dict[str, Any]:
    meta = reduction.point.meta
    distance = meta["distance_m"]
    label = meta["waveform"]
    key = reduction.point.key
    outcome = reduction.outcomes[key]
    accumulator = ErrorRateAccumulator()
    truth = reduction.context[label].sent.symbols[12:]
    for cell_outcome in outcome.results:
        if cell_outcome is None:
            accumulator.record_lost(truth.size)
            continue
        decoded, delivered, hamming = cell_outcome
        accumulator.record(truth, decoded, delivered, hamming)
    mean_budget = _mean_budget(reduction.config)
    rssi = RssiEstimator(reference_dbm=0.0)
    row = {
        "distance_m": distance,
        "receiver": meta["receiver"],
        "waveform": label,
        "packet_error_rate": accumulator.packet_error_rate,
        "symbol_error_rate": accumulator.symbol_error_rate,
        "snr_db": float(mean_budget.snr_db(distance)),
        "rssi_dbm": rssi.estimate_from_power_dbm(
            float(mean_budget.received_power_dbm(distance))
        ),
    }
    if reduction.adaptive:
        row.update(
            trials_used=outcome.trials_used,
            ci_low=outcome.ci_low,
            ci_high=outcome.ci_high,
        )
    return row


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        "USRP profile: quadrature demodulation + implementation loss; "
        "CC26x2 profile: coherent correlator (the paper's 'stronger "
        "demodulation functions')"
    ]


SPEC = SweepSpec(
    experiment_id="fig14",
    title="Fig. 14: waveform emulation attack performance vs distance",
    defaults={
        "distances_m": (1, 2, 3, 4, 5, 6, 7, 8),
        "trials": 10,
    },
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="point",
    reduce_point=_reduce_point,
    notes=_notes,
    scenario=ScenarioSupport(channel="environment"),
)


run = SPEC.run
