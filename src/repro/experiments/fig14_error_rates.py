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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channel.pathloss import LinkBudget
from repro.experiments.adaptive import DEFAULT_REL_PRECISION
from repro.experiments.common import (
    ExperimentResult,
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
    run_sweep,
)
from repro.hardware.cc26x2 import cc26x2_receiver_config
from repro.hardware.rssi import RssiEstimator
from repro.hardware.usrp import usrp_receiver_config
from repro.link.metrics import ErrorRateAccumulator
from repro.utils.rng import RngLike
from repro.zigbee.receiver import ZigBeeReceiver


@batch_trial
def _link_trial(
    context: Dict[str, Any],
    args: Tuple[Any, ...],
    rngs: List[np.random.Generator],
) -> List[Optional[Tuple[np.ndarray, bool, Optional[np.ndarray]]]]:
    """One propagated reception per RNG; ``None`` marks a sync loss.

    Each row's channel realization is applied on the 1-D waveform with
    that row's own spawned streams, and the noisy rows go through the
    receiver's batched chain.  A row is ``(decoded_symbols, delivered,
    hamming_distances)`` so the parent can replay the accumulator in
    trial order.
    """
    link_key, rx_name, distance, loss_db = args
    prepared = context[link_key]
    receiver = context["receivers"][rx_name]
    waveform = prepared.on_air
    stacked = np.empty(
        (len(rngs), waveform.samples.size), dtype=np.complex128
    )
    for row, rng in enumerate(rngs):
        channel = context["env"].channel_at(
            distance, extra_loss_db=loss_db, rng=rng
        )
        stacked[row] = channel.apply(waveform).samples
    packets = receiver.receive_batch(stacked, waveform.sample_rate_hz)
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


def _fingerprint(config: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "trials": config["trials"],
        "distances_m": [float(d) for d in config["distances_m"]],
    }


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
    return {
        "env": resolve_environment(config, rng=0),
        "receivers": {
            "usrp": ZigBeeReceiver(usrp_receiver_config()),
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
    fingerprint=_fingerprint,
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="point",
    reduce_point=_reduce_point,
    notes=_notes,
    scenario=ScenarioSupport(
        axes=("distances_m", "trials"),
        channel="environment",
    ),
)


def run(
    distances_m: Sequence[float] = (1, 2, 3, 4, 5, 6, 7, 8),
    trials: int = 10,
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
    """Error-rate sweep over distance for both receivers and waveforms.

    ``checkpoint_dir``/``resume`` persist (and skip) each completed
    (distance, receiver, waveform) cell; ``on_error`` selects the
    engine's trial-failure policy; ``adaptive`` stops each cell once its packet-error-rate Wilson CI
    reaches ``rel_precision`` relative half-width (cap ``max_trials``),
    adding ``trials_used`` and the CI bounds to each row.
    """
    return run_sweep(
        SPEC,
        overrides={
            "distances_m": tuple(distances_m),
            "trials": trials,
        },
        rng=rng, workers=workers, chunk_size=chunk_size, on_error=on_error,
        checkpoint_dir=checkpoint_dir, resume=resume,
        adaptive=adaptive, rel_precision=rel_precision,
        max_trials=max_trials,
    )
