"""Table IV — averaged squared Euclidean distance D_E^2 vs SNR.

The paper averages D_E^2 over 50 training waveforms per class at SNR 7,
12 and 17 dB and observes an order-of-magnitude gap (0.15/0.06/0.04 for
ZigBee vs 1.71/1.62/1.55 for emulated).  Our receiver substrate yields
smaller absolute values on both sides, but the same monotone trends and
a gap wide enough for a single threshold.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.experiments.common import prepare_authentic, prepare_emulated
from repro.experiments.defense_common import (
    _distance_or_none,
    mean_or_nan,
    statistic_trial,
)
from repro.experiments.sweep import (
    PointSpec,
    ScenarioSupport,
    StreamSpec,
    SweepPlan,
    SweepReduction,
    SweepSpec,
    resolve_channel_factory,
    resolve_detector,
    resolve_receiver,
)

PAPER_TABLE4 = {
    7: (0.1546, 1.7140),
    12: (0.0642, 1.6238),
    17: (0.0421, 1.5536),
}


def _plan(config: Mapping[str, Any]) -> SweepPlan:
    snrs = list(config["snrs_db"])
    per_point = config["waveforms_per_point"]
    chip_source = config["chip_source"]
    points = []
    for i, snr in enumerate(snrs):
        streams = tuple(
            StreamSpec(
                key=f"snr{snr:g}.{label}", rng_slot=2 * i + offset,
                budget=per_point, trial=statistic_trial,
                static_args=(label, chip_source, False, snr),
                kind="mean", extract=_distance_or_none,
            )
            for offset, label in enumerate(("zigbee", "emulated"))
        )
        points.append(PointSpec(
            key=f"snr{snr:g}", streams=streams, meta={"snr_db": snr},
        ))
    return SweepPlan(points=tuple(points), rng_slots=2 * len(snrs))


def _context(
    config: Mapping[str, Any], base: np.random.Generator
) -> Dict[str, Any]:
    return {
        "zigbee": prepare_authentic(),
        "emulated": prepare_emulated(rng=base),
        "receiver": resolve_receiver(config, "defense"),
        "channel_factory": resolve_channel_factory(config),
    }


def _columns(config: Mapping[str, Any], adaptive: bool) -> List[str]:
    columns = [
        "snr_db", "zigbee_de2", "emulated_de2",
        "paper_zigbee_de2", "paper_emulated_de2", "separation_factor",
    ]
    if adaptive:
        columns.append("trials_used")
    return columns


def _build_rows(reduction: SweepReduction) -> None:
    for point in reduction.plan.points:
        snr = point.meta["snr_db"]
        means: Dict[str, float] = {}
        trials_used = 0
        for label in ("zigbee", "emulated"):
            payload = reduction.payloads[f"snr{snr:g}.{label}"]
            means[label] = mean_or_nan(
                [float(value) for value in payload["values"]]
            )
            trials_used += int(payload["trials_used"])
        paper = PAPER_TABLE4.get(int(snr), (float("nan"), float("nan")))
        row = {
            "snr_db": snr,
            "zigbee_de2": means["zigbee"],
            "emulated_de2": means["emulated"],
            "paper_zigbee_de2": paper[0],
            "paper_emulated_de2": paper[1],
            "separation_factor": (
                means["emulated"] / means["zigbee"]
                if means["zigbee"] else float("nan")
            ),
        }
        if reduction.adaptive:
            row["trials_used"] = trials_used
        reduction.result.add_row(**row)


def _notes(config: Mapping[str, Any]) -> List[str]:
    return [
        f"defense chip source: {config['chip_source']}; absolute D_E^2 is "
        "smaller than the paper's (cleaner receiver front end) but the "
        "class gap and trends reproduce"
    ]


SPEC = SweepSpec(
    experiment_id="table4",
    title="Table IV: averaged Euclidean distance square (D_E^2)",
    defaults={
        "snrs_db": (7, 12, 17),
        "waveforms_per_point": 50,
        "chip_source": "quadrature",
    },
    plan=_plan,
    context=_context,
    columns=_columns,
    checkpoint_unit="stream",
    build_rows=_build_rows,
    detector=resolve_detector,
    notes=_notes,
    scenario=ScenarioSupport(channel="snr", receiver=True),
)


run = SPEC.run
